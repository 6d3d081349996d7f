// Package serve turns the fspnet analysis library into a long-running
// HTTP/JSON service. A Server accepts fsplang networks, canonicalizes
// them with fsplang.Format (which is idempotent: Format∘Parse∘Format =
// Format), keys a bounded LRU verdict cache on the SHA-256 of the
// canonical text plus the resolved request parameters, and runs cache
// misses through the governed fspnet entry points on a fixed worker pool
// with admission control:
//
//   - a full queue turns requests away with 429 instead of letting the
//     backlog grow without bound;
//   - each request's deadline and state budget are lowered onto a
//     guard.G, so a run that exhausts them returns a 200 response with
//     status "partial" carrying the three-valued bounds the truncated
//     run still proved — never a hung connection;
//   - a client disconnect cancels the request's governor at its next
//     poll, freeing the worker;
//   - CancelInflight (the SIGTERM drain path) stops every in-flight run
//     the same way, so draining returns partial verdicts rather than
//     dropping work.
//
// A Canonicalizer in front of the parse memoizes each raw request's
// digest, so a repeated request neither parses nor formats.
//
// Endpoints: POST /v1/analyze, POST /v1/lint, GET /v1/verdict/{digest},
// GET /healthz, GET /statusz. See docs/SERVICE.md for the wire format.
//
// POST /v1/lint runs the speclint analyzers over the canonical form of
// the submitted network — no solver work at all — and caches the
// diagnostics in a second LRU keyed by the canonical-text digest, so a
// lint answer is a pure function of its key and can never go stale.
// /v1/analyze accepts lint=true to attach the same diagnostics to an
// analysis response as warnings.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"fspnet/internal/explore"
	"fspnet/internal/fsplang"
	"fspnet/internal/game/belief"
	"fspnet/internal/guard"
	"fspnet/internal/network"
	"fspnet/internal/speclint"
	"fspnet/internal/success"
	"fspnet/internal/verdictjson"
)

// Default configuration bounds.
const (
	// DefaultQueueDepth is the admission queue bound beyond the worker
	// pool: at most Workers+DefaultQueueDepth requests are in the house.
	DefaultQueueDepth = 64
	// DefaultCacheEntries bounds the verdict LRU.
	DefaultCacheEntries = 1024
	// DefaultMaxBodyBytes bounds a single /v1/analyze or /v1/lint body
	// (and each item's network inside a batch); fsplang sources are small,
	// and an oversized body is refused with 413 before any parsing.
	DefaultMaxBodyBytes = 1 << 20
	// DefaultMaxBatchBytes bounds the whole /v1/analyze/batch body.
	DefaultMaxBatchBytes = 8 << 20
	// DefaultMaxBatchItems bounds the item count of one batch request.
	DefaultMaxBatchItems = 256
)

// ErrBodyTooLarge marks a request body over the configured byte cap; the
// handlers map it to 413 Content Too Large. Wrapped errors carry the
// limit that was exceeded.
var ErrBodyTooLarge = errors.New("request body too large")

// Predicate sets a request may ask for.
const (
	// PredicatesAll decides S_u, S_a, and S_c — the S_a belief-set game
	// dominates the cost on large networks.
	PredicatesAll = "all"
	// PredicatesReach decides S_u and S_c only, via the on-the-fly
	// explore engine; no context is ever composed.
	PredicatesReach = "reach"
)

// Config assembles a Server.
type Config struct {
	// Workers is the analysis pool size — how many analyses run at once.
	// Each analysis is itself internally parallel (the explore engine
	// fans out over GOMAXPROCS), so ≤ 0 defaults to 2, not NumCPU.
	Workers int
	// QueueDepth bounds admitted-but-waiting requests beyond Workers;
	// ≤ 0 means DefaultQueueDepth. Negative admission is impossible: a
	// full queue answers 429.
	QueueDepth int
	// CacheEntries bounds the verdict LRU, the lint LRU and the
	// canonicalization memo; ≤ 0 means DefaultCacheEntries. A memo entry
	// pays only while its verdict can be cached, so one bound serves all
	// three.
	CacheEntries int
	// MaxTimeout caps (and, when a request names none, supplies) the
	// per-request deadline; 0 means no server-imposed deadline.
	MaxTimeout time.Duration
	// MaxBudget caps (and, when a request names none, supplies) the
	// per-request joint state budget; 0 means no server-imposed budget.
	MaxBudget int
	// MaxBodyBytes bounds a single request body (and each batch item's
	// network text); ≤ 0 means DefaultMaxBodyBytes. Oversized bodies are
	// refused with 413.
	MaxBodyBytes int64
	// MaxBatchBytes bounds the whole /v1/analyze/batch body; ≤ 0 means
	// DefaultMaxBatchBytes.
	MaxBatchBytes int64
	// MaxBatchItems bounds the item count of one batch; ≤ 0 means
	// DefaultMaxBatchItems.
	MaxBatchItems int
	// Hook is installed into every request governor — the fault-injection
	// seam the serve tests drive with guard/faultinject. Production
	// configurations leave it nil.
	Hook guard.Hook
	// Store configures the crash-safe persistent verdict store backing the
	// LRU; a zero value (empty Dir) runs memory-only. Store failures never
	// fail requests: the server degrades to memory-only caching and probes
	// for the disk's return with backoff.
	Store StoreConfig
	// Logf receives operational log lines (store quarantine, recovery);
	// nil discards them. cmd/fspd points it at its stdout logger.
	Logf func(format string, args ...any)
}

// Server is one analysis service instance. It is safe for concurrent use
// and is normally mounted via Handler on an http.Server owned by cmd/fspd.
type Server struct {
	cfg   Config
	canon *Canonicalizer
	cache *lru[verdictjson.Record]
	lints *lru[[]speclint.Diagnostic]
	admit chan struct{} // admission tickets: Workers + QueueDepth
	slots chan struct{} // running tickets: Workers
	c     counters
	lat   *latencyRecorder
	bel   *beliefRecorder
	exp   *exploreRecorder
	store *storeKeeper
	start time.Time
	mux   *http.ServeMux

	flightMu sync.Mutex         // guards flights and every flight's waiters
	flights  map[string]*flight // in-progress analyses by dedup key

	mu       sync.Mutex // guards the drain flags and cancels
	draining bool       // in-flight analyses are being canceled
	// healthDraining flips /healthz to 503 the moment shutdown begins, so
	// load balancers stop routing here while queued analyses still finish
	// inside the grace period. draining implies healthDraining, not the
	// reverse.
	healthDraining bool
	nextRun        int64
	cancels        map[int64]context.CancelFunc // in-flight analysis governors
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = DefaultMaxBatchBytes
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = DefaultMaxBatchItems
	}
	s := &Server{
		cfg:   cfg,
		canon: NewCanonicalizer(cfg.CacheEntries),
		cache: newLRU[verdictjson.Record](cfg.CacheEntries),
		lints: newLRU[[]speclint.Diagnostic](cfg.CacheEntries),
		admit: make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		slots: make(chan struct{}, cfg.Workers),
		lat:   newLatencyRecorder(),
		bel:   newBeliefRecorder(),
		exp:   newExploreRecorder(),
	}
	s.flights = make(map[string]*flight)
	s.start = time.Now() //fsplint:ignore detrand uptime anchor for /statusz
	s.cancels = make(map[int64]context.CancelFunc)
	s.store = newStoreKeeper(cfg.Store, cfg.Logf)
	// The store is an L2 under the LRU: an eviction drops only the
	// in-memory copy, and the next request for the digest reads through to
	// disk instead of recomputing. The on-disk set is bounded separately by
	// the store's own record cap (compaction drops oldest beyond it), so a
	// warm-load overflow past CacheEntries loses nothing durable.
	if n := s.store.warmLoad(s.cache); n > 0 && cfg.Logf != nil {
		cfg.Logf("verdict store: warm-loaded %d verdicts from %s", n, cfg.Store.Dir)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/analyze/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/lint", s.handleLint)
	s.mux.HandleFunc("GET /v1/verdict/{digest}", s.handleVerdict)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /statusz", s.handleStatus)
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// CancelInflight cancels the governor of every in-flight analysis; each
// stops at its next poll and its handler responds with the partial
// verdict. The SIGTERM drain path arms this after the grace period so
// http.Server.Shutdown can finish. When it returns, every in-flight
// governor context is already canceled, and analyses admitted afterwards
// start canceled.
func (s *Server) CancelInflight() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	s.healthDraining = true
	for _, cancel := range s.cancels {
		cancel()
	}
}

// StartDrain marks the server as draining for health checks: /healthz
// answers 503 from here on, steering load balancers away, while analyze
// traffic — including queued work — still runs to completion. cmd/fspd
// calls this at SIGTERM, ahead of the grace period that ends in
// CancelInflight.
func (s *Server) StartDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.healthDraining = true
}

// Close releases the server's persistent store (syncing and closing its
// segments). In-flight write-throughs after Close are dropped, never
// errors. Safe to call more than once.
func (s *Server) Close() error {
	return s.store.close()
}

// registerCancel enrolls an in-flight analysis governor with the drain
// path. The returned func unregisters it. If a drain already started the
// context is canceled before the analysis begins.
func (s *Server) registerCancel(cancel context.CancelFunc) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		cancel()
		return func() {}
	}
	id := s.nextRun
	s.nextRun++
	s.cancels[id] = cancel
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		delete(s.cancels, id)
	}
}

// Snapshot returns the current Stats.
func (s *Server) Snapshot() Stats {
	canonHits, canonMisses := s.canon.Counts()
	return Stats{
		Requests:      s.c.requests.Load(),
		Hits:          s.c.hits.Load(),
		DiskHits:      s.c.diskHits.Load(),
		Misses:        s.c.misses.Load(),
		Deduped:       s.c.deduped.Load(),
		Evictions:     int64(s.cache.evicted()),
		Batches:       s.c.batches.Load(),
		BatchItems:    s.c.batchItems.Load(),
		Rejected:      s.c.rejected.Load(),
		Canceled:      s.c.canceled.Load(),
		Partials:      s.c.partials.Load(),
		Errors:        s.c.errors.Load(),
		Inflight:      s.c.inflight.Load(),
		Queued:        s.c.queued.Load(),
		CacheEntries:  s.cache.len(),
		Lints:         s.c.lints.Load(),
		LintHits:      s.c.lintHits.Load(),
		LintMisses:    s.c.lintMisses.Load(),
		LintEntries:   s.lints.len(),
		LintEvictions: int64(s.lints.evicted()),
		CanonHits:     canonHits,
		CanonMisses:   canonMisses,
		Store:         s.store.snapshot(),
		Uptime:        time.Since(s.start).Round(time.Millisecond).String(), //fsplint:ignore detrand uptime for /statusz
		Runtime:       ReadRuntime(),
		Latency:       s.lat.snapshot(),
		Belief:        s.bel.snapshot(),
		Explore:       s.exp.snapshot(),
	}
}

// AnalyzeRequest is the POST /v1/analyze JSON body. A request may instead
// send the fsplang source as a raw (non-JSON) body and the remaining
// fields as query parameters, which keeps curl invocations one-liners.
type AnalyzeRequest struct {
	// Network is the fsplang source text.
	Network string `json:"network"`
	// Process is the distinguished process index (default 0).
	Process int `json:"process"`
	// Mode is "auto" (default: cyclic iff some process is cyclic),
	// "acyclic" (§3 semantics), or "cyclic" (§4 semantics).
	Mode string `json:"mode,omitempty"`
	// Predicates is "all" (default) or "reach" (S_u and S_c only).
	Predicates string `json:"predicates,omitempty"`
	// Timeout is a Go duration bounding this request's analysis; the
	// server caps it at Config.MaxTimeout.
	Timeout string `json:"timeout,omitempty"`
	// Budget bounds the joint states interned by this request's
	// analysis; the server caps it at Config.MaxBudget.
	Budget int `json:"budget,omitempty"`
	// Lint attaches the speclint diagnostics of the canonical network to
	// the response as warnings (served from the lint cache).
	Lint bool `json:"lint,omitempty"`
}

// AnalyzeResponse is the POST /v1/analyze (and GET /v1/verdict) reply
// envelope around the shared verdictjson.Record.
type AnalyzeResponse struct {
	Digest     string             `json:"digest"`
	Mode       string             `json:"mode,omitempty"`
	Predicates string             `json:"predicates,omitempty"`
	Cached     bool               `json:"cached"`
	Record     verdictjson.Record `json:"record"`
	// Warnings carries the canonical network's speclint diagnostics when
	// the request asked for them with lint=true.
	Warnings []speclint.Diagnostic `json:"warnings,omitempty"`
}

// lintResponse is the POST /v1/lint reply. Diagnostics are positioned in
// the returned canonical text (comments — and with them waivers — do not
// survive canonicalization, so every finding is reported).
type lintResponse struct {
	Digest      string                `json:"digest"`
	Cached      bool                  `json:"cached"`
	Canonical   string                `json:"canonical"`
	Diagnostics []speclint.Diagnostic `json:"diagnostics"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = verdictjson.Encode(w, v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.healthDraining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// WellFormedDigest reports whether digest looks like a verdict digest:
// 64 lowercase hex characters, the fixed SHA-256 form Digest emits. The
// verdict endpoints 400 anything else before touching the cache, and the
// router refuses to hash a malformed digest onto the ring.
func WellFormedDigest(digest string) bool {
	if len(digest) != 64 {
		return false
	}
	for i := 0; i < len(digest); i++ {
		c := digest[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Server) handleVerdict(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if !WellFormedDigest(digest) {
		writeError(w, http.StatusBadRequest, "malformed digest %q (want 64 lowercase hex characters)", digest)
		return
	}
	rec, ok := s.cache.get(digest)
	if !ok {
		// Read through to the persistent store: the digest may have been
		// evicted from memory while its record is still on disk.
		if rec, ok = s.store.get(digest); ok {
			s.c.diskHits.Add(1)
			s.cache.add(digest, rec)
		}
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no cached verdict for digest %s", digest)
		return
	}
	writeJSON(w, http.StatusOK, AnalyzeResponse{Digest: digest, Cached: true, Record: rec})
}

// ReadBody drains r's body up to limit bytes; one byte over returns
// ErrBodyTooLarge (the 413 path).
func ReadBody(r *http.Request, limit int64) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("%w: body exceeds %d bytes", ErrBodyTooLarge, limit)
	}
	return body, nil
}

// ParseAnalyzeBody reads r's body under the byte cap and decodes it with
// DecodeAnalyzeBody.
func ParseAnalyzeBody(r *http.Request, limit int64) (AnalyzeRequest, error) {
	body, err := ReadBody(r, limit)
	if err != nil {
		return AnalyzeRequest{}, err
	}
	return DecodeAnalyzeBody(body, r.Header.Get("Content-Type"), r.URL.Query())
}

// DecodeAnalyzeBody decodes either encoding of an analyze request body —
// a JSON AnalyzeRequest, or a raw fsplang source with the parameters in
// the query string. cmd/fsprouter decodes the bytes it has already read
// with the same function the workers use, so the two tiers can never
// disagree about what a request means.
func DecodeAnalyzeBody(body []byte, contentType string, q url.Values) (AnalyzeRequest, error) {
	var req AnalyzeRequest
	if strings.HasPrefix(contentType, "application/json") {
		if err := json.Unmarshal(body, &req); err != nil {
			return AnalyzeRequest{}, fmt.Errorf("decoding JSON body: %w", err)
		}
	} else {
		// Raw fsplang body; parameters ride in the query string.
		req.Network = string(body)
		if v := q.Get("process"); v != "" {
			p, err := strconv.Atoi(v)
			if err != nil {
				return AnalyzeRequest{}, fmt.Errorf("bad process parameter %q", v)
			}
			req.Process = p
		}
		req.Mode = q.Get("mode")
		req.Predicates = q.Get("predicates")
		req.Timeout = q.Get("timeout")
		if v := q.Get("lint"); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return AnalyzeRequest{}, fmt.Errorf("bad lint parameter %q", v)
			}
			req.Lint = b
		}
		if v := q.Get("budget"); v != "" {
			b, err := strconv.Atoi(v)
			if err != nil {
				return AnalyzeRequest{}, fmt.Errorf("bad budget parameter %q", v)
			}
			req.Budget = b
		}
	}
	return req, nil
}

// requestDeadline lowers the request timeout onto an absolute deadline,
// capped by the server-wide maximum.
func (s *Server) requestDeadline(req AnalyzeRequest) (time.Time, error) {
	limit := s.cfg.MaxTimeout
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err != nil || d <= 0 {
			return time.Time{}, fmt.Errorf("bad timeout %q", req.Timeout)
		}
		if limit == 0 || d < limit {
			limit = d
		}
	}
	if limit == 0 {
		return time.Time{}, nil
	}
	return time.Now().Add(limit), nil //fsplint:ignore detrand per-request deadline anchor
}

// retryAfterSeconds derives a 429 Retry-After hint from the rejected
// class's p90 latency, rounded up to whole seconds with a 1s floor (the
// header carries integral seconds, and an empty ring means the server
// has no evidence the backlog clears faster than that).
func (s *Server) retryAfterSeconds(class string) int {
	p90 := s.lat.p90(class)
	secs := int((p90 + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// requestBudget lowers the request budget, capped by the server-wide
// maximum.
func (s *Server) requestBudget(req AnalyzeRequest) int {
	budget := s.cfg.MaxBudget
	if req.Budget > 0 && (budget == 0 || req.Budget < budget) {
		budget = req.Budget
	}
	return budget
}

// lintFile is the File field of service-side diagnostics: positions are
// line/col into the canonical text the response carries.
const lintFile = "network.fsp"

// lintCanonical returns the diagnostics for a canonical network text,
// from the lint cache when possible. The canonical text always reparses
// (FormatSpec output is idempotent), so there is no error path.
func (s *Server) lintCanonical(canonical string) (digest string, diags []speclint.Diagnostic, cached bool) {
	digest = LintDigest(canonical)
	if diags, ok := s.lintHit(digest); ok {
		return digest, diags, true
	}
	return digest, s.runLint(digest, canonical), false
}

// warnings returns the diagnostics attached to a lint=true analysis: from
// the lint cache by the memoized lint digest, or, on a lint-cache miss,
// by canonicalizing again.
func (s *Server) warnings(cr *canonReq) []speclint.Diagnostic {
	if diags, ok := s.lintHit(cr.LintDigest); ok {
		return diags
	}
	canonical, err := cr.canonical()
	if err != nil {
		return nil // unreachable: the memo saw this text parse
	}
	return s.runLint(cr.LintDigest, canonical)
}

// lintHit serves a lint digest from the lint cache.
func (s *Server) lintHit(digest string) ([]speclint.Diagnostic, bool) {
	diags, ok := s.lints.get(digest)
	if ok {
		s.c.lintHits.Add(1)
	}
	return diags, ok
}

// runLint runs speclint over a canonical network text and caches the
// diagnostics under its lint digest.
func (s *Server) runLint(digest, canonical string) []speclint.Diagnostic {
	spec, err := fsplang.ParseSpec(canonical)
	if err != nil {
		// Unreachable by construction; fail closed with no diagnostics
		// rather than panicking in a handler.
		return nil
	}
	diags := speclint.RunSpec(lintFile, spec, nil)
	if diags == nil {
		diags = []speclint.Diagnostic{}
	}
	s.c.lintMisses.Add(1)
	s.lints.add(digest, diags)
	return diags
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	req, err := ParseAnalyzeBody(r, s.cfg.MaxBodyBytes)
	if err != nil {
		writeError(w, bodyErrorCode(err), "%v", err)
		return
	}
	// The validation-free spec layer accepts every network the analyze
	// parser does, plus ones it rejects (that is the point: an unmatched
	// action comes back as a positioned diagnostic, not a 400).
	spec, err := fsplang.ParseSpec(req.Network)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parsing network: %v", err)
		return
	}
	s.c.lints.Add(1)
	canonical := fsplang.FormatSpec(spec)
	digest, diags, cached := s.lintCanonical(canonical)
	writeJSON(w, http.StatusOK, lintResponse{
		Digest: digest, Cached: cached, Canonical: canonical, Diagnostics: diags,
	})
}

// bodyErrorCode maps a body-read or decode failure to its HTTP status:
// over-cap is 413, everything else 400.
func bodyErrorCode(err error) int {
	if errors.Is(err, ErrBodyTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	req, err := ParseAnalyzeBody(r, s.cfg.MaxBodyBytes)
	if err != nil {
		writeError(w, bodyErrorCode(err), "%v", err)
		return
	}
	cr, err := s.canon.resolve(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	deadline, err := s.requestDeadline(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.c.requests.Add(1)

	var warnings []speclint.Diagnostic
	if req.Lint {
		warnings = s.warnings(&cr)
	}
	digest := cr.Digest
	if rec, ok := s.lookup(digest); ok {
		s.c.hits.Add(1)
		writeJSON(w, http.StatusOK, AnalyzeResponse{
			Digest: digest, Mode: req.Mode, Predicates: req.Predicates, Cached: true, Record: rec,
			Warnings: warnings,
		})
		return
	}
	n, err := cr.network()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res := s.runAnalysis(r.Context(), n, req, digest, deadline)
	switch res.outcome {
	case runOK:
		writeJSON(w, http.StatusOK, AnalyzeResponse{
			Digest: digest, Mode: req.Mode, Predicates: req.Predicates, Cached: false, Record: res.rec,
			Warnings: warnings,
		})
	case runRejected:
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(req.Mode+"/"+req.Predicates)))
		writeError(w, http.StatusTooManyRequests, "analysis queue is full (%d in flight or queued)", cap(s.admit))
	case runCanceled:
		// The client is gone; there is no one left to answer.
	case runPartial:
		writeJSON(w, http.StatusOK, AnalyzeResponse{
			Digest: digest, Mode: req.Mode, Predicates: req.Predicates, Cached: false, Record: res.rec,
			Warnings: warnings,
		})
	default: // runError
		writeJSON(w, http.StatusUnprocessableEntity, AnalyzeResponse{
			Digest: digest, Mode: req.Mode, Predicates: req.Predicates, Cached: false, Record: res.rec,
			Warnings: warnings,
		})
	}
}

// lookup serves a digest from the LRU or, failing that, from the
// persistent store (promoting the record back into memory). The second
// path is what makes the disk an L2: an eviction costs one read-through,
// not a recomputation.
func (s *Server) lookup(digest string) (verdictjson.Record, bool) {
	if rec, ok := s.cache.get(digest); ok {
		return rec, true
	}
	rec, ok := s.store.get(digest)
	if ok {
		s.c.diskHits.Add(1)
		s.cache.add(digest, rec)
	}
	return rec, ok
}

// Outcomes of one governed analysis attempt.
type runOutcome int

const (
	runOK       runOutcome = iota // completed; rec cached and persisted
	runRejected                   // admission refused: queue saturated
	runCanceled                   // caller's context died first
	runPartial                    // governor stop; rec is the partial record
	runError                      // failed outside the governor; rec is the error record
)

type runResult struct {
	rec     verdictjson.Record
	outcome runOutcome
}

// flight is one in-progress analysis shared by every concurrent request
// for the same dedup key. The first arrival is the leader and runs the
// governed analysis; later arrivals wait on done and reuse its result.
// waiters counts every request still listening, leader included; when it
// reaches zero nobody wants the answer, and cancel stops the run at its
// next governor poll. All fields except done/cancel are guarded by the
// server's flightMu; res is published by the close of done.
type flight struct {
	done    chan struct{}
	res     runResult
	cancel  context.CancelFunc
	waiters int
}

// flightKey is the single-flight dedup key: two requests share a run only
// when they share the verdict digest (canonical text + resolved
// parameters) and the request-supplied limits, so a follower never
// receives a verdict computed under looser bounds than it asked for.
func flightKey(digest string, req AnalyzeRequest) string {
	return digest + "\x00" + req.Timeout + "\x00" + strconv.Itoa(req.Budget)
}

// dropWaiter records that one request stopped listening to f; the last
// one out cancels the flight's run context.
func (s *Server) dropWaiter(f *flight) {
	s.flightMu.Lock()
	f.waiters--
	if f.waiters == 0 {
		f.cancel()
	}
	s.flightMu.Unlock()
}

// listening reports whether any request still waits for f's result —
// what separates a canceled run (every client gone) from a drained one
// (stopped by CancelInflight with clients attached, who get the partial
// verdict).
func (s *Server) listening(f *flight) bool {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	return f.waiters > 0
}

// runAnalysis charges one cache miss against the worker pool: admission
// ticket, slot, governed run, cache/store population, and the counter
// bookkeeping. Both the single-request handler and each batch item pass
// through here, so admission control cannot be starved by a batch — every
// item pays for its own ticket, and a saturated queue rejects the item,
// not the connection.
//
// Concurrent identical misses are single-flighted: the first request for
// a (digest, limits) key runs the analysis, later arrivals wait for its
// result — one solver run, one misses increment, identical records for
// every caller. A follower whose client disconnects stops waiting
// without disturbing the run; the run itself is canceled only when every
// interested request is gone or the drain path fires.
func (s *Server) runAnalysis(ctx context.Context, n *network.Network, req AnalyzeRequest, digest string, deadline time.Time) runResult {
	key := flightKey(digest, req)
	s.flightMu.Lock()
	if f, ok := s.flights[key]; ok {
		f.waiters++
		s.flightMu.Unlock()
		s.c.deduped.Add(1)
		select {
		case <-f.done:
			return f.res
		case <-ctx.Done():
			s.dropWaiter(f)
			s.c.canceled.Add(1)
			return runResult{outcome: runCanceled}
		}
	}
	// Leader: the run context deliberately does not descend from the
	// caller's — followers joining later must be able to keep the run
	// alive after the leader's client disconnects. Drain and
	// last-waiter-out are the only cancellation paths.
	runCtx, cancel := context.WithCancel(context.Background())
	f := &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
	s.flights[key] = f
	s.flightMu.Unlock()

	res := s.leadFlight(runCtx, ctx, f, n, req, digest, deadline)

	s.flightMu.Lock()
	f.res = res
	close(f.done)
	delete(s.flights, key)
	s.flightMu.Unlock()
	cancel()
	return res
}

// leadFlight is the leader's half of runAnalysis: the pre-single-flight
// admission/slot/governor pipeline, now watching the flight's shared run
// context instead of the leader's own.
func (s *Server) leadFlight(runCtx, callerCtx context.Context, f *flight, n *network.Network, req AnalyzeRequest, digest string, deadline time.Time) runResult {
	name := n.Process(req.Process).Name()
	// Admission: a ticket covers the whole stay (queued + running); none
	// free means the queue is saturated.
	select {
	case s.admit <- struct{}{}:
		defer func() { <-s.admit }()
	default:
		s.c.rejected.Add(1)
		return runResult{outcome: runRejected}
	}
	// The leader holds one waiter reference on behalf of its own client;
	// a disconnect releases it, and the run stops only if no follower
	// still wants the answer. Registration keeps CancelInflight
	// synchronous: when it returns, this context is done.
	stop := context.AfterFunc(callerCtx, func() { s.dropWaiter(f) })
	defer stop()
	unregister := s.registerCancel(f.cancel)
	defer unregister()

	s.c.queued.Add(1)
	done := runCtx.Done()
acquire:
	for {
		select {
		case s.slots <- struct{}{}:
			s.c.queued.Add(-1)
			defer func() { <-s.slots }()
			break acquire
		case <-done:
			if !s.listening(f) {
				// Every client is gone; the analysis never starts.
				s.c.queued.Add(-1)
				s.c.canceled.Add(1)
				return runResult{outcome: runCanceled}
			}
			// Drain fired with clients still attached: keep waiting for a
			// slot (the running analyses stop at their next poll, freeing
			// one), and the governed run below answers partial immediately.
			done = nil
		}
	}
	s.c.inflight.Add(1)
	defer s.c.inflight.Add(-1)

	g := guard.New(guard.Config{
		Context:  runCtx,
		Deadline: deadline,
		Budget:   s.requestBudget(req),
		Hook:     s.cfg.Hook,
	})

	start := time.Now() //fsplint:ignore detrand latency sample for /statusz quantiles
	rec, err := s.analyze(n, req, g)
	switch {
	case err == nil:
		s.lat.record(req.Mode+"/"+req.Predicates, time.Since(start)) //fsplint:ignore detrand latency sample for /statusz quantiles
		s.c.misses.Add(1)
		s.cache.add(digest, rec)
		s.store.put(digest, rec)
		return runResult{rec: rec, outcome: runOK}
	case guard.IsLimit(err):
		if runCtx.Err() != nil && !s.listening(f) {
			// Every interested client is gone; the governor stopped the run
			// for us and nobody wants the partial.
			s.c.canceled.Add(1)
			return runResult{outcome: runCanceled}
		}
		// Deadline, budget, or a drain with clients attached: the waiters
		// receive the partial verdict the truncated run still proved.
		s.c.partials.Add(1)
		return runResult{rec: verdictjson.FromError(name, err), outcome: runPartial}
	default:
		s.c.errors.Add(1)
		return runResult{rec: verdictjson.FromError(name, err), outcome: runError}
	}
}

// analyze dispatches the resolved request onto the governed library entry
// points.
func (s *Server) analyze(n *network.Network, req AnalyzeRequest, g *guard.G) (verdictjson.Record, error) {
	name := n.Process(req.Process).Name()
	class := req.Mode + "/" + req.Predicates
	cyclic := req.Mode == "cyclic"
	if req.Predicates == PredicatesReach {
		var (
			res explore.Result
			err error
		)
		if cyclic {
			res, err = explore.AnalyzeCyclic(n, req.Process, explore.Options{Guard: g})
		} else {
			res, err = explore.AnalyzeAcyclic(n, req.Process, explore.Options{Guard: g})
		}
		if err != nil {
			return verdictjson.Record{}, err
		}
		s.exp.record(class, res.Stats)
		return verdictjson.Reach(name, res.Su, res.Sc), nil
	}
	var (
		v   success.Verdict
		bst belief.Stats
		est explore.Stats
		err error
	)
	o := success.Options{Guard: g, BeliefStats: &bst, ExploreStats: &est}
	if cyclic {
		v, err = success.AnalyzeCyclicOpts(n, req.Process, o)
	} else {
		v, err = success.AnalyzeAcyclicOpts(n, req.Process, o)
	}
	if err != nil {
		return verdictjson.Record{}, err
	}
	s.exp.record(class, est)
	s.bel.record(class, bst)
	return verdictjson.OK(name, v), nil
}

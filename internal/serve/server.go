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
	"fmt"
	"net/http"
	"strconv"
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
	// Workers is the analysis pool size — how many analyses run at once;
	// ≤ 0 defaults to 2. Each analysis runs on one goroutine.
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
	cfg     Config
	canon   *Canonicalizer
	cache   *lru[verdictjson.Record]
	lints   *lru[[]speclint.Diagnostic]
	admit   chan struct{} // admission tickets: Workers + QueueDepth
	slots   chan struct{} // running tickets: Workers
	c       counters
	classes classRecorder
	store   *storeKeeper
	start   time.Time
	mux     *http.ServeMux
	health  Health

	// drain is the parent of every flight's run context; CancelInflight
	// cancels it.
	drain       context.Context
	cancelDrain context.CancelFunc

	flightMu sync.Mutex         // guards flights and every flight's waiters
	flights  map[string]*flight // in-progress analyses by dedup key
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
	}
	s.drain, s.cancelDrain = context.WithCancel(context.Background())
	s.flights = make(map[string]*flight)
	s.start = time.Now() //fsplint:ignore detrand uptime anchor for /statusz
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
	s.mux.Handle("GET /healthz", &s.health)
	s.mux.HandleFunc("GET /statusz", s.handleStatus)
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// CancelInflight cancels the drain context every analysis's governor
// context descends from; each run stops at its next poll and its handler
// responds with the partial verdict. The SIGTERM drain path arms this
// after the grace period so http.Server.Shutdown can finish. The context
// package makes both promises: when it returns, every in-flight governor
// context is already canceled, and analyses admitted afterwards start
// canceled. /healthz answers 503 from here on.
func (s *Server) CancelInflight() {
	s.health.Drain()
	s.cancelDrain()
}

// StartDrain marks the server as draining for health checks: /healthz
// answers 503 from here on, steering load balancers away, while analyze
// traffic — including queued work — still runs to completion. cmd/fspd
// calls this at SIGTERM, ahead of the grace period that ends in
// CancelInflight.
func (s *Server) StartDrain() { s.health.Drain() }

// Close releases the server's persistent store (syncing and closing its
// segments). In-flight write-throughs after Close are dropped, never
// errors. Safe to call more than once.
func (s *Server) Close() error {
	return s.store.close()
}

// Snapshot returns the current Stats.
func (s *Server) Snapshot() Stats {
	canonHits, canonMisses := s.canon.Counts()
	st := Stats{
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
	}
	s.classes.snapshot(&st)
	return st
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

// classOf is the request's "<mode>/<predicates>" key in /statusz and the
// Retry-After hint; req must be resolved.
func classOf(req AnalyzeRequest) string { return req.Mode + "/" + req.Predicates }

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

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.Snapshot())
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
		WriteError(w, http.StatusBadRequest, "malformed digest %q (want 64 lowercase hex characters)", digest)
		return
	}
	rec, ok := s.lookup(digest)
	if !ok {
		WriteError(w, http.StatusNotFound, "no cached verdict for digest %s", digest)
		return
	}
	WriteJSON(w, http.StatusOK, AnalyzeResponse{Digest: digest, Cached: true, Record: rec})
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
	p90 := s.classes.p90(class)
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

// lint serves the diagnostics of a lint digest from the lint cache, and on
// a miss lints the canonical text that canonical returns and caches the
// result. /v1/lint and lint=true both come through here; the second
// passes canonReq.canonical, which formats again only on a miss after a
// memo hit.
func (s *Server) lint(digest string, canonical func() (string, error)) (diags []speclint.Diagnostic, cached bool) {
	if diags, ok := s.lints.get(digest); ok {
		s.c.lintHits.Add(1)
		return diags, true
	}
	text, err := canonical()
	if err != nil {
		return nil, false // unreachable: the memo saw this text parse
	}
	spec, err := fsplang.ParseSpec(text)
	if err != nil {
		// Unreachable by construction (FormatSpec output is idempotent);
		// fail closed with no diagnostics rather than panicking in a handler.
		return nil, false
	}
	diags = speclint.RunSpec(lintFile, spec, nil)
	if diags == nil {
		diags = []speclint.Diagnostic{}
	}
	s.c.lintMisses.Add(1)
	s.lints.add(digest, diags)
	return diags, false
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	req, err := ParseAnalyzeBody(r, s.cfg.MaxBodyBytes)
	if err != nil {
		WriteError(w, BodyErrorCode(err), "%v", err)
		return
	}
	canonical, digest, err := LintKey(req.Network)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.c.lints.Add(1)
	diags, cached := s.lint(digest, func() (string, error) { return canonical, nil })
	WriteJSON(w, http.StatusOK, lintResponse{
		Digest: digest, Cached: cached, Canonical: canonical, Diagnostics: diags,
	})
}

// handleAnalyze is one request through the two stages every batch item
// also passes: prepare, then answer. The outcome picks the status.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	req, err := ParseAnalyzeBody(r, s.cfg.MaxBodyBytes)
	if err != nil {
		WriteError(w, BodyErrorCode(err), "%v", err)
		return
	}
	it, err := s.prepare(req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.answer(r.Context(), it, nil)
	switch it.outcome {
	case runRejected:
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(classOf(it.req))))
		WriteError(w, http.StatusTooManyRequests, "analysis queue is full (%d in flight or queued)", cap(s.admit))
	case runCanceled:
		// The client is gone; there is no one left to answer.
	case runError:
		WriteJSON(w, http.StatusUnprocessableEntity, it.resp)
	default: // cacheHit, runOK, runPartial
		WriteJSON(w, http.StatusOK, it.resp)
	}
}

// item is one analyze request, a single call or a batch item, past
// prepare: the request with its mode and predicates resolved, its
// canonical form, its deadline, and the response and outcome answer
// fills in.
type item struct {
	req      AnalyzeRequest
	cr       canonReq
	deadline time.Time
	resp     AnalyzeResponse
	outcome  runOutcome
}

// prepare is the first stage: canonicalize through the memo, validate
// the timeout and anchor the deadline (so time spent queued counts
// against it), count the request, and attach lint warnings. An error is
// the client's fault: a single request answers 400, a batch item an
// error record.
func (s *Server) prepare(req AnalyzeRequest) (*item, error) {
	cr, err := s.canon.resolve(&req)
	if err != nil {
		return nil, err
	}
	deadline, err := s.requestDeadline(req)
	if err != nil {
		return nil, err
	}
	s.c.requests.Add(1)
	it := &item{req: req, cr: cr, deadline: deadline, resp: AnalyzeResponse{
		Digest: cr.Digest, Mode: req.Mode, Predicates: req.Predicates,
	}}
	if req.Lint {
		it.resp.Warnings, _ = s.lint(cr.LintDigest, it.cr.canonical)
	}
	return it, nil
}

// answer is the second stage: it serves the item from the LRU or the
// store, or else solves it, and leaves the response and outcome in it. A
// batch passes its WaitGroup, so that a miss solves on a goroutine of its
// own while a hit stays inline; a single request passes nil.
func (s *Server) answer(ctx context.Context, it *item, wg *sync.WaitGroup) {
	if rec, ok := s.lookup(it.resp.Digest); ok {
		s.c.hits.Add(1)
		it.resp.Cached, it.resp.Record, it.outcome = true, rec, cacheHit
		return
	}
	if wg == nil {
		s.solve(ctx, it)
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.solve(ctx, it)
	}()
}

// solve answers a cache miss: parse (needed after a memo hit), then
// runAnalysis. An item that gets no verdict carries an error record
// saying why, which a batch slot reports; a single request answers 429 or
// nothing instead.
func (s *Server) solve(ctx context.Context, it *item) {
	n, err := it.cr.network()
	if err != nil {
		it.resp.Record, it.outcome = ItemError(err.Error()).Record, runError
		return
	}
	res := s.runAnalysis(ctx, n, it.req, it.resp.Digest, it.deadline)
	it.resp.Record, it.outcome = res.rec, res.outcome
	switch res.outcome {
	case runRejected:
		it.resp.Record = ItemError("analysis queue is full; retry the item").Record
	case runCanceled: // the client is gone, or a drain raced a batch
		it.resp.Record = ItemError("analysis canceled").Record
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

// Outcomes of answering one item.
type runOutcome int

const (
	cacheHit    runOutcome = iota // served from the LRU or the store
	runOK                         // completed; rec cached and persisted
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
	// alive after the leader's client disconnects. It descends from the
	// server's drain context instead: drain and last-waiter-out are the
	// only cancellation paths.
	runCtx, cancel := context.WithCancel(s.drain)
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
	// still wants the answer.
	stop := context.AfterFunc(callerCtx, func() { s.dropWaiter(f) })
	defer stop()

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

	rec, err := s.analyze(n, req, g)
	switch {
	case err == nil:
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
// points, and records each completed run once in its class: its latency
// and engine counters.
func (s *Server) analyze(n *network.Network, req AnalyzeRequest, g *guard.G) (verdictjson.Record, error) {
	start := time.Now() //fsplint:ignore detrand latency sample for /statusz quantiles
	name := n.Process(req.Process).Name()
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
		s.classes.record(classOf(req), time.Since(start), res.Stats, nil) //fsplint:ignore detrand latency sample for /statusz quantiles
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
	s.classes.record(classOf(req), time.Since(start), est, &bst) //fsplint:ignore detrand latency sample for /statusz quantiles
	return verdictjson.OK(name, v), nil
}

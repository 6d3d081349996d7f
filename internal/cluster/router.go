package cluster

import (
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"fspnet/internal/serve"
)

// RouterConfig wires a Router around a Cluster config.
type RouterConfig struct {
	// Cluster is the transport tier: workers, ring shape, health policy,
	// in-flight bound.
	Cluster Config
	// MaxBodyBytes caps one analyze/lint body; ≤ 0 means the serve
	// default. The router enforces the same cap the workers do, so an
	// oversized request dies at the edge without spending a forward.
	MaxBodyBytes int64
	// MaxBatchBytes and MaxBatchItems cap a batch request the same way.
	MaxBatchBytes int64
	MaxBatchItems int
}

// Router fronts a set of fspd workers with the single-worker API:
// /v1/analyze, /v1/analyze/batch, /v1/lint, /v1/verdict/{digest},
// /healthz, and an aggregated /statusz. Every request canonicalizes at
// the edge with the same memoized stage the workers use, routes by
// content digest to the worker that owns it on the ring, and relays the
// worker's answer verbatim — status, Retry-After, partial verdicts and
// all. The router holds no verdict state of its own: the cluster-wide
// cache is the workers' union, and any router in front of the same
// worker list routes identically.
type Router struct {
	cfg     RouterConfig
	cluster *Cluster
	canon   *serve.Canonicalizer
	mux     *http.ServeMux
	start   time.Time
	health  serve.Health

	requests   atomic.Int64
	batches    atomic.Int64
	batchItems atomic.Int64
	proxied    atomic.Int64
	rejected   atomic.Int64
}

// NewRouter builds the router and starts its cluster's health prober.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cl, err := New(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = serve.DefaultMaxBodyBytes
	}
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = serve.DefaultMaxBatchBytes
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = serve.DefaultMaxBatchItems
	}
	// The edge memo holds as many requests as the workers' verdict caches
	// do together at their default size.
	rt := &Router{
		cfg:     cfg,
		cluster: cl,
		canon:   serve.NewCanonicalizer(len(cfg.Cluster.Workers) * serve.DefaultCacheEntries),
		mux:     http.NewServeMux(),
		start:   time.Now(), //fsplint:ignore detrand uptime anchor
	}
	rt.mux.Handle("GET /healthz", &rt.health)
	rt.mux.HandleFunc("GET /statusz", rt.handleStatus)
	rt.mux.HandleFunc("POST /v1/analyze", rt.handleAnalyze)
	rt.mux.HandleFunc("POST /v1/analyze/batch", rt.handleBatch)
	rt.mux.HandleFunc("POST /v1/lint", rt.handleLint)
	rt.mux.HandleFunc("GET /v1/verdict/{digest}", rt.handleVerdict)
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Cluster exposes the transport tier (tests, status aggregation).
func (rt *Router) Cluster() *Cluster { return rt.cluster }

// StartDrain flips /healthz to 503 so load balancers stop sending new
// work; in-flight forwards complete normally.
func (rt *Router) StartDrain() { rt.health.Drain() }

// Close stops the health prober.
func (rt *Router) Close() error {
	rt.cluster.Close()
	return nil
}

// handleAnalyze routes one analyze request: canonicalize at the edge to
// learn the digest, then relay the original body untouched to the
// digest's worker. Forwarding the client's own bytes (not a re-encoding)
// makes the worker's answer byte-identical to a direct call.
func (rt *Router) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	body, err := serve.ReadBody(r, rt.cfg.MaxBodyBytes)
	if err != nil {
		serve.WriteError(w, serve.BodyErrorCode(err), "%v", err)
		return
	}
	req, err := serve.DecodeAnalyzeBody(body, r.Header.Get("Content-Type"), r.URL.Query())
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c, err := rt.canon.Resolve(&req)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rt.requests.Add(1)
	rt.relay(w, c.Digest, http.MethodPost, r.URL.RequestURI(), r.Header.Get("Content-Type"), body)
}

// handleLint routes a lint request by the lint digest of its canonical
// text — the same domain-separated key the workers' lint caches use, so
// repeated lints of one network always land on the worker that has the
// diagnostics cached.
func (rt *Router) handleLint(w http.ResponseWriter, r *http.Request) {
	body, err := serve.ReadBody(r, rt.cfg.MaxBodyBytes)
	if err != nil {
		serve.WriteError(w, serve.BodyErrorCode(err), "%v", err)
		return
	}
	req, err := serve.DecodeAnalyzeBody(body, r.Header.Get("Content-Type"), r.URL.Query())
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	_, digest, err := serve.LintKey(req.Network)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rt.requests.Add(1)
	rt.relay(w, digest, http.MethodPost, r.URL.RequestURI(), r.Header.Get("Content-Type"), body)
}

// handleVerdict routes a digest lookup straight to the owning worker.
func (rt *Router) handleVerdict(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if !serve.WellFormedDigest(digest) {
		serve.WriteError(w, http.StatusBadRequest, "malformed digest %q (want 64 lowercase hex characters)", digest)
		return
	}
	rt.requests.Add(1)
	rt.relay(w, digest, http.MethodGet, r.URL.RequestURI(), "", nil)
}

// relay forwards one request under the in-flight bound and copies the
// worker's answer back byte for byte: status code, Content-Type, and
// Retry-After all pass through, so a worker's 429 backpressure hint or
// partial verdict reaches the client unchanged.
func (rt *Router) relay(w http.ResponseWriter, digest, method, pathAndQuery, contentType string, body []byte) {
	if !rt.cluster.acquire() {
		w.Header().Set("Retry-After", "1")
		serve.WriteError(w, http.StatusTooManyRequests, "router is at capacity (%d forwards in flight)", rt.cfg.Cluster.MaxInflight)
		rt.rejected.Add(1)
		return
	}
	defer rt.cluster.release()
	resp, err := rt.cluster.forward(digest, method, pathAndQuery, contentType, body)
	if err != nil {
		serve.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	defer resp.Body.Close()
	rt.proxied.Add(1)
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck
}

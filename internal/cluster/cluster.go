package cluster

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// DefaultMaxInflight bounds the proxied requests a router carries at
// once. Past the bound the router sheds with 429 instead of queueing:
// the workers run their own admission control, so a queue here would
// only add a second, invisible queue in front of theirs.
const DefaultMaxInflight = 256

// errAllWorkersDown reports that every candidate on the ring either
// refused the connection or answered 503.
var errAllWorkersDown = errors.New("cluster: no reachable worker")

// Config wires a Cluster.
type Config struct {
	// Workers are the fspd base URLs (e.g. http://10.0.0.1:8080). Order
	// defines worker indices and must match across routers for the rings
	// to agree.
	Workers []string
	// VNodes is the virtual-node count per worker; ≤ 0 means
	// DefaultVNodes.
	VNodes int
	// MaxInflight bounds concurrently proxied requests; ≤ 0 means
	// DefaultMaxInflight.
	MaxInflight int
	// Health tunes the prober.
	Health HealthConfig
	// Client is the forwarding HTTP client; nil gets a default whose
	// transport keeps MaxInflight idle connections per worker, so every
	// admitted forward can reuse a warm connection. Probes share it.
	Client *http.Client
	// Logf receives operational events; nil discards them.
	Logf func(format string, args ...any)
}

// Cluster owns the ring, the prober, and the forwarding path. It is the
// transport half of the router: given a digest and a request builder it
// finds the digest's home worker, fails over along the ring when the
// home is unreachable, and feeds the health tracker with the evidence.
type Cluster struct {
	cfg    Config
	ring   *Ring
	health *health
	client *http.Client

	inflight  chan struct{}
	failovers atomic.Int64
	errAll    atomic.Int64
}

// New builds the cluster and starts the health prober; Close stops it.
func New(cfg Config) (*Cluster, error) {
	ring, err := NewRing(cfg.Workers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	client := cfg.Client
	if client == nil {
		// http.DefaultTransport keeps 2 idle connections per host: past two
		// concurrent forwards, every answered forward would close its
		// connection and the next would dial a new one.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = cfg.MaxInflight
		tr.MaxIdleConns = cfg.MaxInflight * len(cfg.Workers)
		client = &http.Client{Timeout: 5 * time.Minute, Transport: tr}
	}
	c := &Cluster{
		cfg:      cfg,
		ring:     ring,
		client:   client,
		inflight: make(chan struct{}, cfg.MaxInflight),
	}
	c.health = newHealth(ring.Workers(), cfg.Health, client, cfg.Logf)
	return c, nil
}

// Close stops the prober. In-flight forwards complete normally.
func (c *Cluster) Close() { c.health.close() }

// Ring exposes the ring for tests and the batch splitter.
func (c *Cluster) Ring() *Ring { return c.ring }

// acquire takes an in-flight slot without blocking; the caller sheds
// load when it reports false.
func (c *Cluster) acquire() bool {
	select {
	case c.inflight <- struct{}{}:
		return true
	default:
		return false
	}
}

func (c *Cluster) release() { <-c.inflight }

// candidates returns digest's failover order with health applied:
// healthy workers in ring order first, then — as a last resort, when
// everything looks down — the ejected ones in ring order. skip maps
// worker indices the caller has already tried this request.
func (c *Cluster) candidates(digest string, skip map[int]bool) ([]int, error) {
	order, err := c.ring.Successors(digest)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, len(order))
	for pass := 0; pass < 2; pass++ {
		for _, wi := range order {
			if skip[wi] || c.health.isHealthy(wi) != (pass == 0) {
				continue
			}
			out = append(out, wi)
		}
	}
	return out, nil
}

// forward sends method path?query with body to digest's home worker,
// failing over along the ring on transport errors and 503s. Any other
// HTTP status — 200, a 429 with its Retry-After, a 422 — is the worker
// answering and is returned verbatim for the router to relay. The
// returned response's body is open; the caller owns it.
func (c *Cluster) forward(digest, method, pathAndQuery, contentType string, body []byte) (*http.Response, error) {
	cands, err := c.candidates(digest, nil)
	if err != nil {
		return nil, err
	}
	for _, wi := range cands {
		resp, err := c.forwardTo(wi, method, pathAndQuery, contentType, body)
		if err == nil {
			return resp, nil
		}
		c.failovers.Add(1)
	}
	c.errAll.Add(1)
	return nil, errAllWorkersDown
}

// forwardTo is one attempt against one worker. A transport error or a
// 503 counts against the worker's health and reports an error; any
// other status resets the worker's failure streak.
func (c *Cluster) forwardTo(wi int, method, pathAndQuery, contentType string, body []byte) (*http.Response, error) {
	url := c.ring.workers[wi] + pathAndQuery
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.health.reportFailure(wi, err)
		return nil, err
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		// The worker is up but shedding (draining). Treat it like an
		// outage for this request and let the ring route around it.
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		err := &statusError{code: resp.StatusCode}
		c.health.reportFailure(wi, err)
		return nil, err
	}
	c.health.reportSuccess(wi)
	return resp, nil
}

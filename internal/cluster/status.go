package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"fspnet/internal/serve"
)

// WorkerStatus is one worker's row in the aggregated /statusz: the
// router's view of its liveness plus the worker's own Stats snapshot
// when it was reachable at scrape time.
type WorkerStatus struct {
	URL string `json:"url"`
	// Healthy is the prober's current routing decision.
	Healthy bool `json:"healthy"`
	// Reachable reports whether this scrape's /statusz probe succeeded —
	// it can disagree with Healthy for at most a probe interval.
	Reachable bool `json:"reachable"`
	// ConsecFails is the worker's current failure streak.
	ConsecFails int `json:"consecFails,omitempty"`
	// Ejections and Readmissions count rotation transitions since start.
	Ejections    int64 `json:"ejections,omitempty"`
	Readmissions int64 `json:"readmissions,omitempty"`
	// LastError is the most recent probe or forward failure.
	LastError string `json:"lastError,omitempty"`
	// Stats is the worker's own /statusz snapshot; nil when unreachable.
	Stats *serve.Stats `json:"stats,omitempty"`
}

// Totals aggregates the reachable workers' analyze counters.
type Totals struct {
	Requests int64 `json:"requests"`
	Hits     int64 `json:"hits"`
	DiskHits int64 `json:"diskHits"`
	Misses   int64 `json:"misses"`
	// HitRate is Hits/(Hits+Misses) over the aggregate, 0 when idle.
	// Under digest sharding this is the cluster-wide cache hit rate: a
	// digest lives on exactly one worker, so the sums do not double
	// count.
	HitRate float64 `json:"hitRate"`
}

// RouterStats is the router's /statusz body.
type RouterStats struct {
	// Workers lists every configured worker in ring index order.
	Workers []WorkerStatus `json:"workers"`
	// Totals sums the reachable workers' counters.
	Totals Totals `json:"totals"`
	// Requests counts routed client requests (analyze, lint, verdict, and
	// batch items that reached routing); Batches and BatchItems count the
	// batch traffic; Proxied counts forwards answered by a worker;
	// Failovers counts per-worker forward failures that moved a request
	// along its ring; Rejected counts router-capacity 429s; Errors counts
	// requests that exhausted the ring.
	Requests   int64 `json:"requests"`
	Batches    int64 `json:"batches"`
	BatchItems int64 `json:"batchItems"`
	Proxied    int64 `json:"proxied"`
	Failovers  int64 `json:"failovers"`
	Rejected   int64 `json:"rejected"`
	Errors     int64 `json:"errors"`
	// Inflight is the number of occupied forwarding slots right now.
	Inflight int `json:"inflight"`
	// CanonHits and CanonMisses count the edge's canonicalization memo:
	// analyze requests and batch items whose digest it answered without
	// parsing, and the ones it canonicalized (invalid ones included).
	CanonHits   int64 `json:"canonHits"`
	CanonMisses int64 `json:"canonMisses"`
	// Uptime is wall time since the router was built.
	Uptime string `json:"uptime"`
	// Runtime samples the router process itself, in the same shape the
	// workers report, so one schema serves both tiers.
	Runtime serve.RuntimeStats `json:"runtime"`
}

// Snapshot scrapes every worker's /statusz (concurrently, each under
// StatusTimeout) and folds the answers into one cluster view.
func (rt *Router) Snapshot() RouterStats {
	workers := rt.cluster.ring.Workers()
	out := RouterStats{
		Workers:    make([]WorkerStatus, len(workers)),
		Requests:   rt.requests.Load(),
		Batches:    rt.batches.Load(),
		BatchItems: rt.batchItems.Load(),
		Proxied:    rt.proxied.Load(),
		Failovers:  rt.cluster.failovers.Load(),
		Rejected:   rt.rejected.Load(),
		Errors:     rt.cluster.errAll.Load(),
		Inflight:   len(rt.cluster.inflight),
		Uptime:     time.Since(rt.start).Round(time.Millisecond).String(), //fsplint:ignore detrand uptime display
		Runtime:    serve.ReadRuntime(),
	}
	out.CanonHits, out.CanonMisses = rt.canon.Counts()
	done := make(chan struct{}, len(workers))
	for wi := range workers {
		go func(wi int) {
			defer func() { done <- struct{}{} }()
			out.Workers[wi] = rt.scrapeWorker(wi)
		}(wi)
	}
	for range workers {
		<-done
	}
	for _, ws := range out.Workers {
		if ws.Stats == nil {
			continue
		}
		out.Totals.Requests += ws.Stats.Requests
		out.Totals.Hits += ws.Stats.Hits
		out.Totals.DiskHits += ws.Stats.DiskHits
		out.Totals.Misses += ws.Stats.Misses
	}
	if answered := out.Totals.Hits + out.Totals.Misses; answered > 0 {
		out.Totals.HitRate = float64(out.Totals.Hits) / float64(answered)
	}
	return out
}

// scrapeWorker fetches one worker's /statusz and merges in the health
// tracker's view.
func (rt *Router) scrapeWorker(wi int) WorkerStatus {
	hs := rt.cluster.health.snapshotWorker(wi)
	ws := WorkerStatus{
		URL:          hs.url,
		Healthy:      hs.healthy,
		ConsecFails:  hs.consecFails,
		Ejections:    hs.ejections,
		Readmissions: hs.readmissions,
		LastError:    hs.lastErr,
	}
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.StatusTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, hs.url+"/statusz", nil)
	if err != nil {
		ws.LastError = err.Error()
		return ws
	}
	resp, err := rt.cluster.client.Do(req)
	if err != nil {
		ws.LastError = err.Error()
		return ws
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ws.LastError = fmt.Sprintf("statusz returned %d", resp.StatusCode)
		return ws
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		ws.LastError = fmt.Sprintf("decoding statusz: %v", err)
		return ws
	}
	ws.Reachable = true
	ws.Stats = &st
	return ws
}

func (rt *Router) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, rt.Snapshot())
}

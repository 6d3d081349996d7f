package serve

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fspnet/internal/explore"
	"fspnet/internal/game/belief"
)

// Stats is one /statusz snapshot: monotone counters since process start,
// the current gauges, and per-predicate-class latency quantiles. All
// counters tally POST /v1/analyze traffic; GET /v1/verdict digest
// lookups refresh LRU recency but perturb no counter.
type Stats struct {
	// Requests counts POST /v1/analyze requests accepted for processing
	// (including ones later rejected by admission control).
	Requests int64 `json:"requests"`
	// Hits counts requests answered from the verdict cache (memory or
	// disk read-through).
	Hits int64 `json:"hits"`
	// DiskHits counts the subset of lookups the persistent store answered
	// after the LRU had evicted the digest — the read-through path.
	DiskHits int64 `json:"diskHits"`
	// Misses counts requests that ran an analysis to completion and
	// populated the cache.
	Misses int64 `json:"misses"`
	// Deduped counts requests that joined an identical in-flight analysis
	// instead of starting their own — the single-flight path. A deduped
	// request increments neither Hits nor Misses; the flight's leader
	// accounts for the one run.
	Deduped int64 `json:"deduped"`
	// Evictions counts verdicts dropped from memory by the LRU bound; the
	// persistent store keeps its copy for read-through.
	Evictions int64 `json:"evictions"`
	// Batches counts POST /v1/analyze/batch requests; BatchItems the items
	// they carried. Each valid item also counts into Requests.
	Batches    int64 `json:"batches"`
	BatchItems int64 `json:"batchItems"`
	// Rejected counts requests turned away with 429 by admission control.
	Rejected int64 `json:"rejected"`
	// Canceled counts requests whose client disconnected mid-analysis.
	Canceled int64 `json:"canceled"`
	// Partials counts governed runs stopped early (deadline, budget,
	// drain) that returned a partial verdict.
	Partials int64 `json:"partials"`
	// Errors counts analyses that failed outside the governor.
	Errors int64 `json:"errors"`
	// Inflight is the number of analyses running right now.
	Inflight int64 `json:"inflight"`
	// Queued is the number of admitted requests waiting for a worker.
	Queued int64 `json:"queued"`
	// CacheEntries is the current verdict cache population.
	CacheEntries int `json:"cacheEntries"`
	// Lints counts POST /v1/lint requests.
	Lints int64 `json:"lints"`
	// LintHits counts lint answers served from the lint cache, including
	// warnings attached to /v1/analyze responses.
	LintHits int64 `json:"lintHits"`
	// LintMisses counts lint runs that computed diagnostics and populated
	// the lint cache.
	LintMisses int64 `json:"lintMisses"`
	// LintEntries is the current lint cache population.
	LintEntries int `json:"lintEntries"`
	// LintEvictions counts lint diagnostics dropped by the LRU bound.
	LintEvictions int64 `json:"lintEvictions"`
	// CanonHits counts analyze requests and batch items whose digest the
	// canonicalization memo answered without parsing; CanonMisses counts
	// the ones it canonicalized, invalid requests included (errors are
	// never memoized).
	CanonHits   int64 `json:"canonHits"`
	CanonMisses int64 `json:"canonMisses"`
	// Store reports the persistent verdict store's health and on-disk
	// shape; state "disabled" means no cache directory is configured.
	Store *StoreStats `json:"store"`
	// Uptime is wall time since the server was built.
	Uptime string `json:"uptime"`
	// Runtime is the Go runtime's view of this process, sampled at
	// snapshot time, so a load run can tell queueing delay from GC
	// pressure.
	Runtime RuntimeStats `json:"runtime"`
	// Latency maps "<mode>/<predicates>" (e.g. "cyclic/all",
	// "acyclic/reach") to quantiles over the most recent completed
	// analyses of that class. Cache hits are not included — they measure
	// the map lookup, not the solver.
	Latency map[string]Quantiles `json:"latency,omitempty"`
	// Belief maps "<mode>/all" to running totals of the S_a belief-engine
	// counters of completed analyses of that class. predicates=reach
	// classes never run the belief engine and report nothing.
	Belief map[string]BeliefTotals `json:"belief,omitempty"`
	// Explore maps "<mode>/<predicates>" to running totals of the S_u/S_c
	// explore-engine counters of completed analyses of that class,
	// including the witness probes' visits.
	Explore map[string]ExploreTotals `json:"explore,omitempty"`
}

// RuntimeStats is the process-level runtime sample attached to every
// /statusz snapshot (fspd and fsprouter alike): scheduler shape and heap
// pressure, so a load run can tell queueing delay from GC pressure.
type RuntimeStats struct {
	// Goroutines is the live goroutine count.
	Goroutines int `json:"goroutines"`
	// Gomaxprocs is the scheduler's processor limit.
	Gomaxprocs int `json:"gomaxprocs"`
	// HeapInuseBytes and HeapAllocBytes are runtime.MemStats.HeapInuse and
	// .HeapAlloc; SysBytes is total memory obtained from the OS.
	HeapInuseBytes uint64 `json:"heapInuseBytes"`
	HeapAllocBytes uint64 `json:"heapAllocBytes"`
	SysBytes       uint64 `json:"sysBytes"`
	// NumGC counts completed GC cycles since process start.
	NumGC uint32 `json:"numGC"`
}

// ReadRuntime samples the Go runtime. Exported so cmd/fsprouter's status
// aggregator reports the router process with the same fields as its
// workers.
func ReadRuntime() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		Goroutines:     runtime.NumGoroutine(),
		Gomaxprocs:     runtime.GOMAXPROCS(0),
		HeapInuseBytes: ms.HeapInuse,
		HeapAllocBytes: ms.HeapAlloc,
		SysBytes:       ms.Sys,
		NumGC:          ms.NumGC,
	}
}

// BeliefTotals accumulates belief-engine counters over one class's
// completed analyses. ProbeStates sums the context vectors the witness
// probe visited.
type BeliefTotals struct {
	Analyses    int64 `json:"analyses"`
	CtxStates   int64 `json:"ctxStates"`
	Beliefs     int64 `json:"beliefs"`
	Positions   int64 `json:"positions"`
	ProbeStates int64 `json:"probeStates"`
}

// ExploreTotals accumulates S_u/S_c explore-engine counters over one
// class's completed analyses. ProbeStates sums the vectors the witness
// probes visited.
type ExploreTotals struct {
	Analyses    int64 `json:"analyses"`
	States      int64 `json:"states"`
	Moves       int64 `json:"moves"`
	ProbeStates int64 `json:"probeStates"`
}

// Quantiles summarize a latency sample window.
type Quantiles struct {
	Count int    `json:"count"` // samples currently in the window
	P50   string `json:"p50"`
	P90   string `json:"p90"`
	P99   string `json:"p99"`
}

// counters are the server's atomic tallies.
type counters struct {
	requests   atomic.Int64
	hits       atomic.Int64
	diskHits   atomic.Int64
	misses     atomic.Int64
	deduped    atomic.Int64
	rejected   atomic.Int64
	canceled   atomic.Int64
	partials   atomic.Int64
	errors     atomic.Int64
	inflight   atomic.Int64
	queued     atomic.Int64
	batches    atomic.Int64
	batchItems atomic.Int64

	lints      atomic.Int64
	lintHits   atomic.Int64
	lintMisses atomic.Int64
}

// latencyWindow is the per-class sample bound; old samples are
// overwritten ring-buffer style so quantiles track recent behavior.
const latencyWindow = 512

// classStats is one "<mode>/<predicates>" class's record of completed
// analyses: a ring of recent latencies and the engine counter totals.
type classStats struct {
	ring    [latencyWindow]time.Duration
	next, n int
	explore ExploreTotals
	belief  BeliefTotals
}

// sorted returns the class's latency window in ascending order.
func (c *classStats) sorted() []time.Duration {
	samples := slices.Clone(c.ring[:c.n])
	slices.Sort(samples)
	return samples
}

// classRecorder holds one classStats per class under one mutex. The
// /statusz latency, explore and belief maps and the 429 Retry-After hint
// all read it.
type classRecorder struct {
	mu      sync.Mutex
	classes map[string]*classStats
}

// record adds one completed analysis of class: its latency, its explore
// counters, and its belief counters when it ran the belief engine (bst
// is nil for predicates=reach).
func (r *classRecorder) record(class string, d time.Duration, est explore.Stats, bst *belief.Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.classes[class]
	if c == nil {
		if r.classes == nil {
			r.classes = make(map[string]*classStats)
		}
		c = &classStats{}
		r.classes[class] = c
	}
	c.ring[c.next] = d
	c.next = (c.next + 1) % latencyWindow
	c.n = min(c.n+1, latencyWindow)
	c.explore.Analyses++
	c.explore.States += int64(est.States)
	c.explore.Moves += est.Moves
	c.explore.ProbeStates += int64(est.ProbeStates)
	if bst != nil {
		c.belief.Analyses++
		c.belief.CtxStates += int64(bst.CtxStates)
		c.belief.Beliefs += int64(bst.Beliefs)
		c.belief.Positions += int64(bst.Positions)
		c.belief.ProbeStates += int64(bst.ProbeStates)
	}
}

// snapshot fills st's Latency, Explore and Belief maps; a map stays nil
// until some class has something to report in it.
func (r *classRecorder) snapshot(st *Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for class, c := range r.classes {
		if st.Latency == nil {
			st.Latency = make(map[string]Quantiles, len(r.classes))
			st.Explore = make(map[string]ExploreTotals, len(r.classes))
		}
		samples := c.sorted()
		st.Latency[class] = Quantiles{
			Count: c.n,
			P50:   quantile(samples, 0.50).String(),
			P90:   quantile(samples, 0.90).String(),
			P99:   quantile(samples, 0.99).String(),
		}
		st.Explore[class] = c.explore
		if c.belief.Analyses > 0 {
			if st.Belief == nil {
				st.Belief = make(map[string]BeliefTotals)
			}
			st.Belief[class] = c.belief
		}
	}
}

// p90 returns the 90th-percentile latency of class's current window, or
// 0 when the class has no samples yet. The 429 path turns it into a
// Retry-After hint: one p90 analysis from now, a slot is likely free.
func (r *classRecorder) p90(class string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.classes[class]
	if c == nil {
		return 0
	}
	return quantile(c.sorted(), 0.90)
}

// quantile returns the q-th quantile of sorted samples (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx].Round(time.Microsecond)
}

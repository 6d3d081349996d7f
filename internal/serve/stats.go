package serve

import (
	"runtime"
	"sort"
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
	// snapshot time — the fields fspload runs correlate with latency.
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
	// including the symmetry-reduction yield (orbit hits, states the
	// representatives stand for, probe visits).
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
// completed analyses; Workers and GroupOrder are the most recent run's
// values (configuration echoes, not sums).
type BeliefTotals struct {
	Analyses      int64 `json:"analyses"`
	CtxStates     int64 `json:"ctxStates"`
	Beliefs       int64 `json:"beliefs"`
	Positions     int64 `json:"positions"`
	AntichainHits int64 `json:"antichainHits"`
	Pruned        int64 `json:"pruned"`
	Workers       int   `json:"workers"`
	// GroupOrder echoes the last run's dist-stabilizer subgroup order;
	// SymHits sums context canonicalization hits and ProbeStates the raw
	// vectors the witness probes visited.
	GroupOrder  int   `json:"groupOrder"`
	SymHits     int64 `json:"symHits"`
	ProbeStates int64 `json:"probeStates"`
}

// ExploreTotals accumulates S_u/S_c explore-engine counters over one
// class's completed analyses; GroupOrder is the most recent run's
// discovered automorphism group order (an echo, not a sum).
type ExploreTotals struct {
	Analyses int64 `json:"analyses"`
	States   int64 `json:"states"`
	Moves    int64 `json:"moves"`
	// GroupOrder echoes the last run's automorphism group order; OrbitHits
	// sums successor canonicalizations that moved a vector, SymStates the
	// extra raw states the interned representatives stand for, and
	// ProbeStates the raw vectors the witness probes visited.
	GroupOrder  int   `json:"groupOrder"`
	OrbitHits   int64 `json:"orbitHits"`
	SymStates   int64 `json:"symStates"`
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

type latencyRing struct {
	buf  []time.Duration
	next int
	n    int
}

// latencyRecorder keeps one bounded ring of duration samples per
// "<mode>/<predicates>" class.
type latencyRecorder struct {
	mu    sync.Mutex
	rings map[string]*latencyRing
}

func newLatencyRecorder() *latencyRecorder {
	return &latencyRecorder{rings: make(map[string]*latencyRing)}
}

func (l *latencyRecorder) record(class string, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.rings[class]
	if r == nil {
		r = &latencyRing{buf: make([]time.Duration, latencyWindow)}
		l.rings[class] = r
	}
	r.buf[r.next] = d
	r.next = (r.next + 1) % latencyWindow
	if r.n < latencyWindow {
		r.n++
	}
}

// snapshot computes the quantiles of every class's current window.
func (l *latencyRecorder) snapshot() map[string]Quantiles {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.rings) == 0 {
		return nil
	}
	out := make(map[string]Quantiles, len(l.rings))
	for class, r := range l.rings {
		samples := make([]time.Duration, r.n)
		copy(samples, r.buf[:r.n])
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		out[class] = Quantiles{
			Count: r.n,
			P50:   quantile(samples, 0.50).String(),
			P90:   quantile(samples, 0.90).String(),
			P99:   quantile(samples, 0.99).String(),
		}
	}
	return out
}

// p90 returns the 90th-percentile latency of class's current window, or
// 0 when the class has no samples yet. The 429 path turns it into a
// Retry-After hint: one p90 analysis from now, a slot is likely free.
func (l *latencyRecorder) p90(class string) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.rings[class]
	if r == nil || r.n == 0 {
		return 0
	}
	samples := make([]time.Duration, r.n)
	copy(samples, r.buf[:r.n])
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return quantile(samples, 0.90)
}

// beliefRecorder accumulates per-class belief-engine counters, the same
// class keys the latency recorder uses.
type beliefRecorder struct {
	mu     sync.Mutex
	totals map[string]BeliefTotals
}

func newBeliefRecorder() *beliefRecorder {
	return &beliefRecorder{totals: make(map[string]BeliefTotals)}
}

func (b *beliefRecorder) record(class string, st belief.Stats) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.totals[class]
	t.Analyses++
	t.CtxStates += int64(st.CtxStates)
	t.Beliefs += int64(st.Beliefs)
	t.Positions += int64(st.Positions)
	t.AntichainHits += int64(st.AntichainHits)
	t.Pruned += int64(st.Pruned)
	t.Workers = st.Workers
	t.GroupOrder = st.GroupOrder
	t.SymHits += int64(st.SymHits)
	t.ProbeStates += int64(st.ProbeStates)
	b.totals[class] = t
}

func (b *beliefRecorder) snapshot() map[string]BeliefTotals {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.totals) == 0 {
		return nil
	}
	out := make(map[string]BeliefTotals, len(b.totals))
	for class, t := range b.totals {
		out[class] = t
	}
	return out
}

// exploreRecorder accumulates per-class explore-engine counters, the
// same class keys the latency recorder uses.
type exploreRecorder struct {
	mu     sync.Mutex
	totals map[string]ExploreTotals
}

func newExploreRecorder() *exploreRecorder {
	return &exploreRecorder{totals: make(map[string]ExploreTotals)}
}

func (e *exploreRecorder) record(class string, st explore.Stats) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.totals[class]
	t.Analyses++
	t.States += int64(st.States)
	t.Moves += st.Moves
	t.GroupOrder = st.GroupOrder
	t.OrbitHits += st.OrbitHits
	t.SymStates += st.SymStates
	t.ProbeStates += int64(st.ProbeStates)
	e.totals[class] = t
}

func (e *exploreRecorder) snapshot() map[string]ExploreTotals {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.totals) == 0 {
		return nil
	}
	out := make(map[string]ExploreTotals, len(e.totals))
	for class, t := range e.totals {
		out[class] = t
	}
	return out
}

// quantile returns the q-th quantile of sorted samples (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx].Round(time.Microsecond)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fspnet/internal/cluster"
	"fspnet/internal/explore"
	"fspnet/internal/fsplang"
	"fspnet/internal/game"
	"fspnet/internal/game/belief"
	"fspnet/internal/network"
	"fspnet/internal/serve"
	"fspnet/internal/speclint"
	"fspnet/internal/store"
	"fspnet/internal/success"
	"fspnet/internal/symred"
	"fspnet/internal/verdictjson"
)

// span is one timed call into a layer. Spans of one replayed item share
// Req; Parent is the enclosing span's ID, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A tracer that is off still runs every
// call it wraps, so a replay with spans off does the same work.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	req   int
	stack []int
}

// do runs f inside a span named name, nested in the innermost open span.
func (t *tracer) do(name string, f func()) {
	if !t.on {
		f()
		return
	}
	parent := 0
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	f()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// selfTimes returns, per request and span name, the summed self time:
// a span's duration minus the time its children cover.
func selfTimes(spans []span) map[int]map[string]time.Duration {
	child := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[int]map[string]time.Duration)
	for _, s := range spans {
		m := out[s.Req]
		if m == nil {
			m = make(map[string]time.Duration)
			out[s.Req] = m
		}
		m[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// Span names of the traced replay.
const (
	spRequest   = "request"
	spParseBody = "serve.ParseAnalyzeBody"
	spCanon     = "serve.Canonicalize"
	spParse     = "fsplang.ParseString"
	spFormat    = "fsplang.Format"
	spLint      = "speclint.RunSpec"
	spDiscover  = "symred.Discover"
	spCompile   = "explore.Compile"
	spExplore   = "explore.Analyze"
	spBelief    = "belief.Solve"
	spSuccess   = "success.Analyze"
	spMarshal   = "verdictjson.MarshalRecord"
	spOwner     = "cluster.Owner"
	spPut       = "store.Put"
	spGet       = "store.Get"
	spDirect    = "http.direct"
	spDirectHit = "http.direct_hit"
	spRouter    = "http.router"
	spVerdict   = "http.verdict"
)

// ownerCalls is how many Owner lookups one cluster.Owner span times:
// one lookup is too short to time against the clock's own cost.
const ownerCalls = 100

// layerStats are the counts the traced replay collects. Every field but
// the two walls is a deterministic function of the corpus.
type layerStats struct {
	items, probeDecided     int
	groupOrderSum           int
	expStates, expProbe     int
	expMoves                int64
	ctx, beliefs, positions int
	antichainHits, pruned   int
	// cachedFirst records, per replayed item, whether its first direct
	// analyze was already a cache hit (a repeated hot network).
	cachedFirst map[int]bool
	// onWall and offWall sum the in-process replay with spans on and off.
	onWall, offWall time.Duration
}

// replayItem runs one item through every layer fspd runs it through,
// calling the same public functions, and with wire set then through the
// servers. It returns the wall time of the in-process part.
func (tr *traceRun) replayItem(t *tracer, reqID int, it item, wire bool) (time.Duration, error) {
	t.req = reqID
	body, err := json.Marshal(analyzeRequest(tr.c, it))
	if err != nil {
		return 0, err
	}
	var (
		req      serve.AnalyzeRequest
		canon    string
		digest   string
		n        *network.Network
		rec      verdictjson.Record
		failed   error
		exStats  explore.Result
		belStats belief.Stats
		order    int
		local    time.Duration
	)
	t0 := time.Now()
	cyclic := tr.c.net(it).fam != famTree
	t.do(spRequest, func() {
		t.do(spParseBody, func() {
			hr, _ := http.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
			hr.Header.Set("Content-Type", "application/json")
			req, failed = serve.ParseAnalyzeBody(hr, serve.DefaultMaxBodyBytes)
		})
		if failed != nil {
			return
		}
		t.do(spCanon, func() { canon, digest, failed = serve.Canonicalize(&req) })
		if failed != nil {
			return
		}
		t.do(spParse, func() { n, failed = fsplang.ParseString(req.Network) })
		if failed != nil {
			return
		}
		t.do(spFormat, func() { _ = fsplang.Format(n) })
		t.do(spLint, func() {
			spec, err := fsplang.ParseSpec(canon)
			if err == nil {
				_ = speclint.RunSpec("network.fsp", spec, nil)
			}
		})
		t.do(spDiscover, func() { order = symred.Discover(n).Order() })
		t.do(spCompile, func() { _, failed = explore.Compile(n, 0) })
		if failed != nil {
			return
		}
		t.do(spExplore, func() {
			if cyclic {
				exStats, failed = explore.AnalyzeCyclic(n, 0, explore.Options{})
			} else {
				exStats, failed = explore.AnalyzeAcyclic(n, 0, explore.Options{})
			}
		})
		if failed != nil {
			return
		}
		name := n.Process(0).Name()
		if it.reach {
			rec = verdictjson.Reach(name, exStats.Su, exStats.Sc)
		} else {
			t.do(spBelief, func() {
				if cyclic {
					_, belStats, failed = belief.SolveCyclicTuned(n, 0, game.Options{}, belief.Tuning{})
				} else {
					_, belStats, failed = belief.SolveAcyclicTuned(n, 0, game.Options{}, belief.Tuning{})
				}
			})
			if failed != nil {
				return
			}
			var v success.Verdict
			t.do(spSuccess, func() {
				if cyclic {
					v, failed = success.AnalyzeCyclicOpts(n, 0, success.Options{})
				} else {
					v, failed = success.AnalyzeAcyclicOpts(n, 0, success.Options{})
				}
			})
			if failed != nil {
				return
			}
			rec = verdictjson.OK(name, v)
		}
		if o, _ := tr.k.classifyRecord(it, rec); o != outOK {
			failed = fmt.Errorf("in-process analysis of %s: %s", tr.c.net(it).proc, outcomeNames[o])
			return
		}
		t.do(spMarshal, func() { _, failed = verdictjson.MarshalRecord(rec) })
		if failed != nil {
			return
		}
		owner := 0
		t.do(spOwner, func() {
			for i := 0; i < ownerCalls; i++ {
				owner, failed = tr.ring.Owner(digest)
			}
		})
		if failed != nil {
			return
		}
		t.do(spPut, func() { failed = tr.st.Put(digest, rec) })
		if failed != nil {
			return
		}
		t.do(spGet, func() { _, _, failed = tr.st.Get(digest) })
		if failed != nil {
			return
		}
		local = time.Since(t0)
		if !wire {
			return
		}
		pr := request{body: body, items: []item{it}}
		direct := tr.topo.workers[owner].url
		var r result
		t.do(spDirect, func() { r = tr.k.send(tr.hc, direct, &pr) })
		if !r.ok() {
			failed = fmt.Errorf("direct analyze of %s: %v", tr.c.net(it).proc, outcomesOf(r))
			return
		}
		tr.stats.cachedFirst[reqID] = r.cached
		t.do(spDirectHit, func() { r = tr.k.send(tr.hc, direct, &pr) })
		if !r.ok() || !r.cached {
			failed = fmt.Errorf("repeated direct analyze of %s not a correct cache hit", tr.c.net(it).proc)
			return
		}
		t.do(spRouter, func() { r = tr.k.send(tr.hc, tr.topo.router.url, &pr) })
		if !r.ok() {
			failed = fmt.Errorf("routed analyze of %s: %v", tr.c.net(it).proc, outcomesOf(r))
			return
		}
		t.do(spVerdict, func() { failed = tr.getVerdict(digest, it) })
	})
	if failed != nil {
		return 0, failed
	}
	if wire {
		tr.count(exStats, belStats, order)
	}
	return local, nil
}

func outcomesOf(r result) map[string]int {
	m := map[string]int{}
	for o, c := range r.outs {
		if c > 0 {
			m[outcomeNames[o]] = c
		}
	}
	return m
}

// getVerdict fetches a digest's cached verdict through the router and
// checks it.
func (tr *traceRun) getVerdict(digest string, it item) error {
	resp, err := tr.hc.Get(tr.topo.router.url + "/v1/verdict/" + digest)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	var ar serve.AnalyzeResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &ar) != nil {
		return fmt.Errorf("GET verdict %s: status %d", digest, resp.StatusCode)
	}
	if o, _ := tr.k.classifyRecord(it, ar.Record); o != outOK {
		return fmt.Errorf("GET verdict %s: %s", digest, outcomeNames[o])
	}
	return nil
}

func (tr *traceRun) count(ex explore.Result, bs belief.Stats, groupOrder int) {
	s := &tr.stats
	s.items++
	s.groupOrderSum += groupOrder
	s.expStates += ex.Stats.States
	s.expMoves += ex.Stats.Moves
	s.expProbe += ex.Stats.ProbeStates
	if ex.Stats.States == 0 && ex.Stats.ProbeStates > 0 {
		s.probeDecided++
	}
	s.ctx += bs.CtxStates
	s.beliefs += bs.Beliefs
	s.positions += bs.Positions
	s.antichainHits += bs.AntichainHits
	s.pruned += bs.Pruned
}

// traceRun is the state of one traced replay.
type traceRun struct {
	w     *workload
	c     *corpus
	k     *checker
	hc    *http.Client
	topo  *topology
	ring  *cluster.Ring
	st    *store.Store
	stats layerStats
}

// replayItems flattens the first n requests of stream B into items.
func replayItems(c *corpus, n int) []item {
	var its []item
	for _, r := range c.b[:min(n, len(c.b))] {
		its = append(its, r.items...)
	}
	return its
}

// runTrace replays a prefix of stream B with a span around every layer
// call, then runs the rest of stream B untraced for the service's own
// counters, and adds the per-layer metrics to out. storeReplay, when
// set, is the replay time of the workload's own preloaded store; else
// the replay's scratch store is reopened and timed.
func runTrace(w *workload, c *corpus, k *checker, hc *http.Client, topo *topology, workDir string, storeReplay time.Duration, out *wlResult) error {
	ring, err := cluster.NewRing(topo.workerURLs(), cluster.DefaultVNodes)
	if err != nil {
		return err
	}
	stDir, err := os.MkdirTemp(workDir, "trace-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stDir)
	st, err := store.Open(stDir, store.Options{MaxRecords: storeDiskCap})
	if err != nil {
		return err
	}
	tr := &traceRun{w: w, c: c, k: k, hc: hc, topo: topo, ring: ring, st: st}
	tr.stats.cachedFirst = map[int]bool{}
	on := &tracer{on: true, t0: time.Now()}
	its := replayItems(c, w.traceReplay)
	err = tr.replay(its, on)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if storeReplay == 0 {
		t0 := time.Now()
		st, err := store.Open(stDir, store.Options{MaxRecords: storeDiskCap})
		if err != nil {
			return err
		}
		storeReplay = time.Since(t0)
		_ = st.Close()
	}
	if err := writeTrace(filepath.Join(workDir, "trace-"+w.name+".json"), w.name, on.spans); err != nil {
		return err
	}
	var replayed []serve.Stats
	for _, wk := range topo.workers {
		st, err := workerStats(hc, wk.url)
		if err != nil {
			return err
		}
		replayed = append(replayed, st)
	}
	out.add("serve.solve_p50_ms", solveP50(replayed), "ms")
	tr.layerMetrics(on.spans, its, out)
	out.add("store.replay_ms", ms(storeReplay), "ms")
	out.Attempted += len(its)
	out.Outcomes[outcomeNames[outOK]] += len(its)
	return tr.serviceCounters(out)
}

// replay runs every item's in-process calls twice, with spans off and
// on in alternating order, for the overhead ratio; the traced pass then
// goes on to the wire.
func (tr *traceRun) replay(its []item, on *tracer) error {
	off := &tracer{}
	for i, it := range its {
		for pass := 0; pass < 2; pass++ {
			traced := (i+pass)%2 == 1
			t := off
			if traced {
				t = on
			}
			d, err := tr.replayItem(t, i, it, traced)
			if err != nil {
				return err
			}
			if traced {
				tr.stats.onWall += d
			} else {
				tr.stats.offWall += d
			}
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// layerMetrics turns the traced spans and counts into per-layer metrics.
func (tr *traceRun) layerMetrics(spans []span, its []item, out *wlResult) {
	self := selfTimes(spans)
	reqs := make([]int, 0, len(self))
	for r := range self {
		reqs = append(reqs, r)
	}
	sort.Ints(reqs)
	med := func(name string, unit func(time.Duration) float64) float64 {
		var xs []float64
		for _, r := range reqs {
			if d, ok := self[r][name]; ok {
				xs = append(xs, unit(d))
			}
		}
		return medianOf(xs)
	}
	var miss, hit, fwd, cover, queue, glue []float64
	var expMs, belMs float64
	for _, r := range reqs {
		m := self[r]
		it := its[r]
		expMs += ms(m[spExplore])
		belMs += ms(m[spBelief])
		if !it.reach {
			glue = append(glue, us(m[spSuccess]-m[spExplore]-m[spBelief]))
		}
		hit = append(hit, ms(m[spDirectHit]))
		fwd = append(fwd, ms(m[spRouter]-m[spDirectHit]))
		if tr.stats.cachedFirst[r] {
			continue
		}
		// What fspd does on a miss beyond what it does on a hit of the same
		// request (decode, canonicalize, lookup, encode, the wire): solve,
		// marshal the record, and lint or persist it where the workload
		// does.
		solve := m[spExplore]
		if !it.reach {
			solve = m[spSuccess]
		}
		pipe := m[spDirectHit] + solve + m[spMarshal]
		if it.lint {
			pipe += m[spLint]
		}
		if tr.w.store {
			pipe += m[spPut]
		}
		miss = append(miss, ms(m[spDirect]))
		cover = append(cover, float64(pipe)/float64(m[spDirect]))
		queue = append(queue, ms(m[spDirect]-solve))
	}
	s := &tr.stats
	out.add("fsplang.parse_us", med(spParse, us), "us")
	out.add("fsplang.format_us", med(spFormat, us), "us")
	out.add("serve.parse_body_us", med(spParseBody, us), "us")
	out.add("serve.canonicalize_us", med(spCanon, us), "us")
	out.add("serve.hit_latency_p50_ms", medianOf(hit), "ms")
	out.add("serve.miss_latency_p50_ms", medianOf(miss), "ms")
	out.add("serve.queue_wait_ms", medianOf(queue), "ms")
	out.add("speclint.run_us", med(spLint, us), "us")
	out.add("symred.discover_us", med(spDiscover, us), "us")
	out.add("symred.group_order_mean", ratio(s.groupOrderSum, s.items), "count")
	out.add("explore.compile_us", med(spCompile, us), "us")
	out.add("explore.analyze_ms", med(spExplore, ms), "ms")
	out.add("explore.states", float64(s.expStates), "count")
	out.add("explore.moves", float64(s.expMoves), "count")
	out.add("explore.probe_states", float64(s.expProbe), "count")
	out.add("explore.probe_decided_ratio", ratio(s.probeDecided, s.items), "ratio")
	out.add("explore.states_per_ms", safeDiv(float64(s.expStates), expMs), "1/ms")
	out.add("belief.solve_ms", med(spBelief, ms), "ms")
	out.add("belief.ctx_states", float64(s.ctx), "count")
	out.add("belief.ctx_states_per_ms", safeDiv(float64(s.ctx), belMs), "1/ms")
	out.add("belief.beliefs", float64(s.beliefs), "count")
	out.add("belief.positions", float64(s.positions), "count")
	out.add("belief.antichain_hit_ratio", ratio(s.antichainHits, s.positions), "ratio")
	out.add("belief.pruned", float64(s.pruned), "count")
	out.add("success.analyze_ms", med(spSuccess, ms), "ms")
	out.add("success.glue_us", medianOf(glue), "us")
	out.add("verdictjson.marshal_us", med(spMarshal, us), "us")
	out.add("store.put_us", med(spPut, us), "us")
	out.add("store.get_us", med(spGet, us), "us")
	out.add("cluster.owner_ns", med(spOwner, func(d time.Duration) float64 { return float64(d) / ownerCalls }), "ns")
	out.add("cluster.forward_overhead_ms", medianOf(fwd), "ms")
	out.add("trace.coverage_ratio", medianOf(cover), "ratio")
	out.add("trace.overhead_ratio", safeDiv(float64(s.onWall), float64(s.offWall)), "ratio")
}

func ratio(a, b int) float64 { return safeDiv(float64(a), float64(b)) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeTrace(path, workload string, spans []span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// serviceCounters sends the rest of stream B through the workload's own
// entry point, untraced and closed loop, and reports what the servers'
// /statusz counters saw it do.
func (tr *traceRun) serviceCounters(out *wlResult) error {
	entry := tr.topo.workers[0].url
	if tr.w.router {
		entry = tr.topo.router.url
	}
	if len(tr.c.warm) > 0 {
		if p := closedLoop(tr.k, tr.hc, entry, tr.c.warm); p.counts()[outOK] != len(tr.c.warm) {
			return fmt.Errorf("warm-up: %v", p.counts())
		}
	}
	snap := func() ([]serve.Stats, error) {
		var sts []serve.Stats
		for _, w := range tr.topo.workers {
			st, err := workerStats(tr.hc, w.url)
			if err != nil {
				return nil, err
			}
			sts = append(sts, st)
		}
		return sts, nil
	}
	before, err := snap()
	if err != nil {
		return err
	}
	p := closedLoop(tr.k, tr.hc, entry, tr.c.b[min(tr.w.traceReplay, len(tr.c.b)):])
	out.addPhase(&p)
	after, err := snap()
	if err != nil {
		return err
	}
	var d serve.Stats
	var ioErrors int64
	var heap uint64
	var gcs uint32
	var ops []int64
	for i := range after {
		a, b := after[i], before[i]
		d.Hits += a.Hits - b.Hits
		d.DiskHits += a.DiskHits - b.DiskHits
		d.Misses += a.Misses - b.Misses
		d.Deduped += a.Deduped - b.Deduped
		d.Rejected += a.Rejected - b.Rejected
		d.LintHits += a.LintHits - b.LintHits
		d.LintMisses += a.LintMisses - b.LintMisses
		ops = append(ops, a.Requests-b.Requests)
		if a.Store != nil {
			ioErrors += a.Store.IOErrors
		}
		heap += a.Runtime.HeapInuseBytes
		gcs += a.Runtime.NumGC
	}
	answered := d.Hits + d.Misses
	out.add("serve.hit_ratio", safeDiv(float64(d.Hits), float64(answered)), "ratio")
	out.add("serve.disk_hit_ratio", safeDiv(float64(d.DiskHits), float64(answered)), "ratio")
	out.add("serve.deduped", float64(d.Deduped), "count")
	out.add("serve.rejected", float64(d.Rejected), "count")
	out.add("serve.lint_hit_ratio", safeDiv(float64(d.LintHits), float64(d.LintHits+d.LintMisses)), "ratio")
	out.add("store.io_errors", float64(ioErrors), "count")
	out.add("cluster.shard_skew", skew(ops), "ratio")
	out.add("runtime.heap_mb", float64(heap)/(1<<20), "MiB")
	out.add("runtime.num_gc", float64(gcs), "count")
	return nil
}

// solveP50 is the workers' own p50 solve time from /statusz: the
// busiest predicate class of the busiest worker stands for all.
func solveP50(sts []serve.Stats) float64 {
	p50, n := 0.0, 0
	for _, st := range sts {
		for _, class := range sortedKeys(st.Latency) {
			q := st.Latency[class]
			if q.Count > n {
				if d, err := time.ParseDuration(q.P50); err == nil {
					p50, n = ms(d), q.Count
				}
			}
		}
	}
	return p50
}

// skew is max/mean of per-worker operation counts (1 when balanced).
func skew(ops []int64) float64 {
	var sum, hi int64
	for _, o := range ops {
		sum += o
		hi = max(hi, o)
	}
	if sum == 0 {
		return 1
	}
	return float64(hi) * float64(len(ops)) / float64(sum)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"fspnet/internal/serve"
)

// workload is one traffic mix against one server topology. The rates and
// counts are calibrated on the commit that introduced the benchmark and
// then frozen: later commits do the same work, so their numbers compare.
type workload struct {
	name string
	// fspd processes, and whether fsprouter fronts them.
	workers int
	router  bool
	// store runs fspd with a disk-backed verdict store preloaded with the
	// stored set; cache is the LRU size (0: the fspd default).
	store bool
	cache int
	// capReqs is the capacity phase's request count (send slots on
	// hot-routed) for a 15-second run; it scales with -seconds.
	capReqs int
	// rate is the open loop's send rate, in requests (slots) per second,
	// over the latency window: the last two thirds of -seconds.
	rate float64
	// sloMs is the latency limit of slo_ok_ratio (≈ 4× the calibrated p99).
	sloMs float64
	// traceReplay is the stream B prefix the traced run replays.
	traceReplay int
}

// The four workloads each put a different layer under most of the work.
// The counts and rates were calibrated on a 2-core host (README.md): each
// open loop runs at roughly a quarter to a third of the capacity the
// closed loop measured.
var workloads = []*workload{
	// Never-seen networks with predicates=reach: explore's BFS, probes,
	// compile and symred do the work; belief does none; no cache hits.
	{name: "reach-cold", workers: 1, capReqs: 4000, rate: 200, sloMs: 40, traceReplay: 300},
	// The same streams with predicates=all: belief's context BFS and
	// game dominate, and the difference from reach-cold isolates them.
	{name: "all-cold", workers: 1, capReqs: 1650, rate: 100, sloMs: 120, traceReplay: 200},
	// Zipf traffic over 1024 warmed small networks through fsprouter:
	// forwarding, canonicalizing twice, hashing, the verdict and lint
	// caches and JSON encoding dominate.
	{name: "hot-routed", workers: 2, router: true, capReqs: 15000, rate: 725, sloMs: 15, traceReplay: 400},
	// Uniform reads over the stored verdicts behind a 256-entry LRU (most
	// served by disk read-through), plus fresh solves that each Put with
	// fsync and evict: the store's read path beside its write path, and
	// its replay at start-up.
	{name: "evict-store", workers: 1, store: true, cache: 256, capReqs: 20000, rate: 2000, sloMs: 25, traceReplay: 400},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Workload shape constants.
const (
	hotSetSize = 1024
	// storeSetSize leaves the disk cap room for every fresh verdict a
	// default run writes (a tenth of its 40000 requests): past the cap,
	// each Put compacts the whole store.
	storeSetSize = 4096
	storeDiskCap = 8192
	zipfS        = 1.1
	// Per block of hotBlock slots: one fresh network sent twice (5%),
	// hotBatchesPerBlock batches (10%), the rest singles.
	hotBlock           = 20
	hotBatchesPerBlock = 2
	hotBatchItems      = 8
	hotLintShare       = 0.25
	// Per block of storeBlock requests: one fresh network (10%).
	storeBlock = 10
)

// item is one analysis a request asks for: a network of the corpus, the
// predicates (which with the network fix the expected verdict), and
// whether it asks for lint warnings.
type item struct {
	list  listID
	idx   int
	reach bool
	lint  bool
}

// request is one HTTP call of a stream: a single analyze or a batch.
type request struct {
	body  []byte
	batch bool
	items []item
	// slot is the open loop's send slot: request i is due at slot/rate.
	// The two copies of a hot fresh network share a slot.
	slot int
}

// corpus is everything one run of one workload sends, plus the stored
// set it preloads, all derived from the seed.
type corpus struct {
	nets   map[string][]*netSpec // by list name
	warm   []request             // sent before timing (hot-routed)
	b, a   []request             // capacity stream, latency stream
	stored []item                // preloaded into the store (evict-store)
}

// net returns the network an item refers to.
func (c *corpus) net(it item) *netSpec { return c.nets[it.list.name][it.idx] }

// lists returns the corpus's network lists in a fixed order.
func (c *corpus) lists() []listID {
	var out []listID
	for _, l := range allLists {
		if _, ok := c.nets[l.name]; ok {
			out = append(out, l)
		}
	}
	return out
}

var allLists = []listID{listColdA, listColdB, listHotSet, listHotFreshA, listHotFreshB, listStoreSet, listStoreFreshA, listStoreFreshB}

// streamLens returns how many requests the capacity stream holds and
// how many send slots the latency stream spans in a run of seconds.
func (w *workload) streamLens(seconds float64) (nb, slots int) {
	nb = int(math.Round(float64(w.capReqs) * seconds / 15))
	slots = int(math.Round(w.rate * seconds * 2 / 3))
	return max(nb, 1), max(slots, 1)
}

// buildCorpus generates w's corpus for seed and a run of seconds.
func buildCorpus(w *workload, seed int64, seconds float64) *corpus {
	nb, slots := w.streamLens(seconds)
	c := &corpus{nets: map[string][]*netSpec{}}
	switch w.name {
	case "reach-cold", "all-cold":
		reach := w.name == "reach-cold"
		c.b = c.coldStream(seed, listColdB, nb, reach)
		c.a = c.coldStream(seed, listColdA, slots, reach)
	case "hot-routed":
		c.nets[listHotSet.name] = genList(seed, listHotSet, 0, hotSetSize)
		for i := 0; i < hotSetSize; i++ {
			c.warm = append(c.warm, single(c, item{list: listHotSet, idx: i, lint: true}))
		}
		c.b = c.hotStream(seed, listHotFreshB, nb)
		c.a = c.hotStream(seed, listHotFreshA, slots)
	case "evict-store":
		c.nets[listStoreSet.name] = genList(seed, listStoreSet, 0, storeSetSize)
		for i := 0; i < storeSetSize; i++ {
			c.stored = append(c.stored, item{list: listStoreSet, idx: i})
		}
		c.b = c.storeStream(seed, listStoreFreshB, nb)
		c.a = c.storeStream(seed, listStoreFreshA, slots)
	}
	return c
}

// coldStream is n never-seen networks of list l, one request each.
func (c *corpus) coldStream(seed int64, l listID, n int, reach bool) []request {
	c.nets[l.name] = genList(seed, l, 0, n)
	out := make([]request, n)
	for i := range out {
		out[i] = single(c, item{list: l, idx: i, reach: reach})
		out[i].slot = i
	}
	return out
}

// hotStream is n send slots of hot-routed traffic. Every block of 20
// slots holds, in shuffled order, one fresh network sent twice in its
// slot (single-flight), two batches of Zipf items, and seventeen Zipf
// singles; a quarter of all items ask for lint.
func (c *corpus) hotStream(seed int64, fresh listID, slots int) []request {
	r := rand.New(rand.NewSource(subseed(seed, fresh.key, 7)))
	z := rand.NewZipf(r, zipfS, 1, hotSetSize-1)
	// The Zipf ranks map onto the hot set through a seeded permutation,
	// so popularity is unrelated to generation order.
	rank := r.Perm(hotSetSize)
	hot := func() item {
		it := item{list: listHotSet, idx: rank[z.Uint64()]}
		it.lint = r.Float64() < hotLintShare
		return it
	}
	var out []request
	var kinds []int
	for s := 0; s < slots; s++ {
		if s%hotBlock == 0 {
			kinds = r.Perm(hotBlock) // 0: fresh pair, 1-2: batch, rest single
		}
		switch k := kinds[s%hotBlock]; {
		case k == 0:
			it := item{list: fresh, idx: len(c.nets[fresh.name])}
			c.nets[fresh.name] = append(c.nets[fresh.name], genNet(seed, fresh, it.idx))
			req := single(c, it)
			req.slot = s
			out = append(out, req, req)
		case k <= hotBatchesPerBlock:
			its := make([]item, hotBatchItems)
			for i := range its {
				its[i] = hot()
			}
			req := batch(c, its)
			req.slot = s
			out = append(out, req)
		default:
			req := single(c, hot())
			req.slot = s
			out = append(out, req)
		}
	}
	return out
}

// storeStream is n requests of evict-store traffic: in every block of
// ten, in shuffled order, nine uniform reads over the stored set and one
// fresh network, which costs a solve, a Put with fsync and an LRU
// eviction.
func (c *corpus) storeStream(seed int64, fresh listID, n int) []request {
	r := rand.New(rand.NewSource(subseed(seed, fresh.key, 7)))
	out := make([]request, n)
	var kinds []int
	for i := range out {
		if i%storeBlock == 0 {
			kinds = r.Perm(storeBlock) // 0: fresh, rest read
		}
		it := item{list: listStoreSet, idx: r.Intn(storeSetSize)}
		if kinds[i%storeBlock] == 0 {
			it = item{list: fresh, idx: len(c.nets[fresh.name])}
			c.nets[fresh.name] = append(c.nets[fresh.name], genNet(seed, fresh, it.idx))
		}
		out[i] = single(c, it)
		out[i].slot = i
	}
	return out
}

func predicates(it item) string {
	if it.reach {
		return serve.PredicatesReach
	}
	return serve.PredicatesAll
}

func analyzeRequest(c *corpus, it item) serve.AnalyzeRequest {
	return serve.AnalyzeRequest{Network: c.net(it).text, Predicates: predicates(it), Lint: it.lint}
}

func single(c *corpus, it item) request {
	body, err := json.Marshal(analyzeRequest(c, it))
	if err != nil {
		panic(err) // a plain struct always marshals
	}
	return request{body: body, items: []item{it}}
}

func batch(c *corpus, its []item) request {
	var br serve.BatchRequest
	for _, it := range its {
		br.Items = append(br.Items, analyzeRequest(c, it))
	}
	body, err := json.Marshal(br)
	if err != nil {
		panic(err)
	}
	return request{body: body, batch: true, items: its}
}

// digest is the corpus digest: SHA-256 over the SHA-256 of every request
// body the run sends, in order (warm-up, capacity, latency), then of
// every stored network's canonical text. Two runs compare only when
// their digests agree.
func (c *corpus) digest() string {
	h := sha256.New()
	for _, reqs := range [][]request{c.warm, c.b, c.a} {
		for _, r := range reqs {
			s := sha256.Sum256(r.body)
			h.Write(s[:])
		}
	}
	for _, it := range c.stored {
		s := sha256.Sum256([]byte(c.net(it).text))
		h.Write(s[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fspnet/internal/serve"
	"fspnet/internal/verdictjson"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 98}, {1000, 99}, {1999, 99}, {2000, 99.5}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// TestOpenLoopDueTime stalls both connections for 200 ms at the start of
// an open loop: every request that fell due during the stall must be
// charged from its due time, and none of them counts as generator lag.
func TestOpenLoopDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	seen := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen++
		first := seen <= 2
		mu.Unlock()
		if first {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	const rate = 100.0 // one request due every 10 ms
	reqs := make([]request, 40)
	for i := range reqs {
		reqs[i] = request{body: []byte("{}"), items: []item{{}}, slot: i}
	}
	p := openLoop(&checker{}, newClient(), ts.URL, reqs, rate)
	for i, r := range p.results {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if r.outs[out5xx] != 1 {
			t.Fatalf("request %d: outcomes %v, want one http_5xx", i, r.outs)
		}
		switch {
		case due < stall-20*time.Millisecond:
			// Queued behind the stall: waited at least until it ended.
			if min := stall - due - 5*time.Millisecond; r.latency < min {
				t.Errorf("request %d due at %v: latency %v, want ≥ %v", i, due, r.latency, min)
			}
			if i >= 2 && r.idleDue {
				t.Errorf("request %d due during the stall counted as idle at its due time", i)
			}
		case due > stall+50*time.Millisecond:
			if !r.idleDue || r.latency > 50*time.Millisecond {
				t.Errorf("request %d due after the stall: idle=%v latency %v", i, r.idleDue, r.latency)
			}
		}
	}
	if lag := genLagP99(&p); lag > maxGenLagMs {
		t.Errorf("generator lag p99 %.3f ms", lag)
	}
}

// testCorpus holds the first tree of seed 1's hot set, with its
// reference verdict: a tree, so a state budget of 1 cuts it short.
func testCorpus(t *testing.T) (*corpus, *checker, item) {
	t.Helper()
	n := genNet(1, listHotSet, 0)
	for i := 1; n.fam != famTree; i++ {
		n = genNet(1, listHotSet, i)
	}
	c := &corpus{nets: map[string][]*netSpec{listHotSet.name: {n}}}
	code, err := referenceVerdict(n, true)
	if err != nil {
		t.Fatal(err)
	}
	k := &checker{c: c, refs: refs{listHotSet.name: code[:]}}
	return c, k, item{list: listHotSet, idx: 0}
}

// blockHook parks every governed run at its first poll until released.
type blockHook struct {
	entered chan struct{}
	once    sync.Once
	release chan struct{}
}

func (h *blockHook) Fire(string, int) error {
	h.once.Do(func() { close(h.entered) })
	<-h.release
	return nil
}

func (h *blockHook) Panic(string, int) bool { return false }

func TestClassify(t *testing.T) {
	c, k, it := testCorpus(t)
	req := single(c, it)
	hc := newClient()

	ok := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer ok.Close()
	if r := k.send(hc, ok.URL, &req); !r.ok() {
		t.Errorf("real server: %v, want ok", outcomesOf(r))
	}

	partial := httptest.NewServer(serve.New(serve.Config{MaxBudget: 1}).Handler())
	defer partial.Close()
	if r := k.send(hc, partial.URL, &req); r.outs[outPartial] != 1 {
		t.Errorf("budget 1: %v, want partial", outcomesOf(r))
	}

	forged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		ok.Config.Handler.ServeHTTP(rec, r)
		var ar serve.AnalyzeResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &ar)
		flipped := !*ar.Record.Su
		ar.Record.Su = &flipped
		_ = verdictjson.Encode(w, ar)
	}))
	defer forged.Close()
	if r := k.send(hc, forged.URL, &req); r.outs[outWrong] != 1 {
		t.Errorf("forged verdict: %v, want wrong_verdict", outcomesOf(r))
	}

	for _, tc := range []struct {
		code int
		body string
		want outcome
	}{
		{http.StatusServiceUnavailable, `{"error":"draining"}`, out5xx},
		{http.StatusTooManyRequests, `{"error":"router is at capacity (256 forwards in flight)"}`, outShed},
		{http.StatusBadRequest, `{"error":"parsing network"}`, outWrong},
	} {
		s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(tc.code)
			_, _ = w.Write([]byte(tc.body))
		}))
		if r := k.send(hc, s.URL, &req); r.outs[tc.want] != 1 {
			t.Errorf("status %d: %v, want %s", tc.code, outcomesOf(r), outcomeNames[tc.want])
		}
		s.Close()
	}

	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	if r := k.send(hc, gone.URL, &req); r.outs[outTransport] != 1 {
		t.Errorf("closed server: %v, want transport", outcomesOf(r))
	}

	// Admission control: one worker and one queue slot hold two blocked
	// runs, so a third distinct network is turned away with 429.
	h := &blockHook{entered: make(chan struct{}), release: make(chan struct{})}
	srv := serve.New(serve.Config{Workers: 1, QueueDepth: 1, Hook: h})
	full := httptest.NewServer(srv.Handler())
	defer full.Close()
	c.nets[listHotFreshA.name] = genList(1, listHotFreshA, 0, 3)
	var others []request
	for i, n := range c.nets[listHotFreshA.name] {
		code, err := referenceVerdict(n, true)
		if err != nil {
			t.Fatal(err)
		}
		k.refs[listHotFreshA.name] = append(k.refs[listHotFreshA.name], code[:]...)
		others = append(others, single(c, item{list: listHotFreshA, idx: i}))
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(full.URL+"/v1/analyze", "application/json", bytes.NewReader(others[i].body))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	<-h.entered
	for srv.Snapshot().Queued != 1 {
		time.Sleep(time.Millisecond)
	}
	r := k.send(hc, full.URL, &others[2])
	close(h.release)
	wg.Wait()
	if r.outs[outRejected] != 1 {
		t.Errorf("full queue: %v, want rejected_429", outcomesOf(r))
	}
}

func TestCorpusDeterminism(t *testing.T) {
	for _, w := range workloads {
		a := buildCorpus(w, 7, 1)
		if b := buildCorpus(w, 7, 1); a.digest() != b.digest() {
			t.Errorf("%s: same seed, different corpus digests", w.name)
		}
		if b := buildCorpus(w, 8, 1); a.digest() == b.digest() {
			t.Errorf("%s: seeds 7 and 8 give the same corpus", w.name)
		}
		// No network appears twice in the corpus: streams A and B (and
		// their fresh lists) are disjoint, and a cold stream never
		// repeats a network.
		digests := map[string]bool{}
		for _, l := range a.lists() {
			for _, n := range a.nets[l.name] {
				req := serve.AnalyzeRequest{Network: n.text}
				_, d, err := serve.Canonicalize(&req)
				if err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
				if digests[d] {
					t.Errorf("%s: a network of list %s appears twice", w.name, l.name)
				}
				digests[d] = true
			}
		}
	}
}

// TestCommittedRefsCurrent checks that the committed references were
// computed from the networks the generator makes today: the first
// checkpoint of every list must reproduce.
func TestCommittedRefsCurrent(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		rf, err := loadCommittedRefs(seed)
		if err != nil || rf == nil {
			t.Fatalf("seed %d: refs %v, err %v", seed, rf, err)
		}
		for _, rl := range rf.Lists {
			for _, l := range allLists {
				if l.name == rl.Name && rl.trusted(genList(seed, l, 0, refsCheckpoint)) != refsCheckpoint {
					t.Errorf("seed %d: refs for %s are stale; rerun go run ./cmd/fspperf -refs", seed, rl.Name)
				}
			}
		}
	}
}

// fakeRun is a result file with one workload's metrics.
func fakeRun(throughput, latency float64, corpus string, states float64) *runResults {
	return &runResults{Seed: 1, Seconds: 15, Workloads: []*wlResult{{
		Name: "w", Corpus: corpus, Valid: true, Verdicts: "v",
		Metrics: []metric{
			{"throughput_rps", throughput, "ops/s"},
			{"latency_p50_ms", latency, "ms"},
			{"explore.states", states, "count"},
		},
	}}}
}

func TestCompare(t *testing.T) {
	bounds := map[string]benchBound{
		"throughput_rps": {Name: "throughput_rps", Better: "higher", Bound: 0.1},
		"latency_p50_ms": {Name: "latency_p50_ms", Better: "lower", Bound: 0.1},
	}
	side := func(scaleT, scaleL, states float64) []*runResults {
		var out []*runResults
		for _, jitter := range []float64{0.99, 1, 1.01, 0.995, 1.005} {
			out = append(out, fakeRun(1000*jitter*scaleT, 5*jitter*scaleL, "c", states))
		}
		return out
	}
	flagged := func(cs []comparison) []string {
		var out []string
		for _, c := range cs {
			if c.regression || c.mismatch {
				out = append(out, c.metric)
			}
		}
		return out
	}
	cs, err := compareSets(side(1, 1, 7), side(1, 1, 7), bounds)
	if err != nil || len(flagged(cs)) != 0 {
		t.Errorf("identical sets: flagged %v, err %v", flagged(cs), err)
	}
	cs, err = compareSets(side(1, 1, 7), side(1, 1.2, 7), bounds)
	if err != nil || strings.Join(flagged(cs), ",") != "latency_p50_ms" {
		t.Errorf("20%% slower p50: flagged %v, err %v", flagged(cs), err)
	}
	cs, err = compareSets(side(1, 1, 7), side(1/1.2, 1, 7), bounds)
	if err != nil || strings.Join(flagged(cs), ",") != "throughput_rps" {
		t.Errorf("20%% lower throughput: flagged %v, err %v", flagged(cs), err)
	}
	cs, err = compareSets(side(1, 1, 7), side(1, 1, 8), bounds)
	if err != nil || strings.Join(flagged(cs), ",") != "explore.states" {
		t.Errorf("changed state count: flagged %v, err %v", flagged(cs), err)
	}
	other := side(1, 1, 7)
	other[0].Workloads[0].Corpus = "d"
	if _, err := compareSets(side(1, 1, 7), other, bounds); err == nil {
		t.Error("compared runs with different corpus digests")
	}

	// The file-level entry point reads BENCHMARK.json's bounds.
	dir := t.TempDir()
	var paths []string
	for i, r := range append(side(1, 1, 7), side(1, 1.2, 7)...) {
		p := filepath.Join(dir, "run"+string(rune('a'+i))+".json")
		if err := writeJSON(p, r); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	args := append(append(append([]string{}, paths[:5]...), "--"), paths[5:]...)
	if code := compareMain(args, bench, &out, &errb); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("compareMain exit %d, output:\n%s%s", code, out.String(), errb.String())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 0, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 0, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Req: 0, Name: "b", Start: 50, End: 90},
	}
	got := selfTimes(spans)[0]
	if got["request"] != 30 || got["a"] != 30 || got["b"] != 40 {
		t.Errorf("self times %v", got)
	}
}

package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"fspnet/internal/serve"
)

const (
	netA = "process P { start s0; s0 a s1 }\nprocess Q { start q0; q0 a q1 }"
	netB = "process P { start s0; s0 b s1 }\nprocess Q { start q0; q0 b q1 }"
	netC = "process P { start s0; s0 c s1; s1 d s2 }\nprocess Q { start q0; q0 c q1; q1 d q2 }"
)

// netN generates distinct single-action networks, so tests can mint as
// many digests as they need.
func netN(i int) string {
	return fmt.Sprintf("process P { start s0; s0 a%d s1 }\nprocess Q { start q0; q0 a%d q1 }", i, i)
}

// testWorker is an fspd worker on a real TCP listener, so tests can
// kill it (breaking live connections like a SIGKILL would) and restart
// it on the same address to exercise readmission.
type testWorker struct {
	t    *testing.T
	addr string
	cfg  serve.Config

	mu  sync.Mutex
	srv *http.Server
	s   *serve.Server
}

func newTestWorker(t *testing.T, cfg serve.Config) *testWorker {
	t.Helper()
	w := &testWorker{t: t, cfg: cfg}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w.addr = l.Addr().String()
	w.start(l)
	t.Cleanup(w.stop)
	return w
}

func (w *testWorker) url() string { return "http://" + w.addr }

func (w *testWorker) start(l net.Listener) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.s = serve.New(w.cfg)
	w.srv = &http.Server{Handler: w.s.Handler()}
	go w.srv.Serve(l) //nolint:errcheck
}

// stop kills the worker: the listener and every live connection close
// immediately, so in-flight forwards see a transport error.
func (w *testWorker) stop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.srv == nil {
		return
	}
	w.srv.Close()
	w.s.Close()
	w.srv = nil
}

// restart rebinds the worker's original address with a fresh (cold
// cache) serve.Server.
func (w *testWorker) restart() {
	w.t.Helper()
	deadline := time.Now().Add(5 * time.Second) //fsplint:ignore detrand test poll deadline
	for {
		l, err := net.Listen("tcp", w.addr)
		if err == nil {
			w.start(l)
			return
		}
		if time.Now().After(deadline) { //fsplint:ignore detrand test poll deadline
			w.t.Fatalf("rebinding %s: %v", w.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (w *testWorker) stats() serve.Stats {
	w.t.Helper()
	resp, err := http.Get(w.url() + "/statusz")
	if err != nil {
		w.t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		w.t.Fatal(err)
	}
	return st
}

// fastHealth is the probe policy for tests: quick cadence, two strikes,
// tight backoff so readmission happens within milliseconds of a
// restart.
func fastHealth() HealthConfig {
	return HealthConfig{
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
		FailThreshold: 2,
		BackoffMin:    10 * time.Millisecond,
		BackoffMax:    100 * time.Millisecond,
	}
}

func newTestRouter(t *testing.T, urls []string, mutate func(*RouterConfig)) (*Router, *httptest.Server) {
	t.Helper()
	cfg := RouterConfig{Cluster: Config{Workers: urls, Health: fastHealth()}}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { ts.Close(); rt.Close() })
	return rt, ts
}

func postJSON(t *testing.T, url string, req serve.AnalyzeRequest) (*http.Response, serve.AnalyzeResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ar serve.AnalyzeResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusUnprocessableEntity {
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, ar
}

func postBatch(t *testing.T, url string, breq serve.BatchRequest) (*http.Response, serve.BatchResponse) {
	t.Helper()
	body, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/analyze/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var bresp serve.BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&bresp); err != nil {
			t.Fatalf("decoding batch response: %v", err)
		}
	}
	return resp, bresp
}

// digestOf computes the digest the router will route req by.
func digestOf(t *testing.T, req serve.AnalyzeRequest) string {
	t.Helper()
	_, digest, err := serve.Canonicalize(&req)
	if err != nil {
		t.Fatal(err)
	}
	return digest
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second) //fsplint:ignore detrand test poll deadline
	for !cond() {
		if time.Now().After(deadline) { //fsplint:ignore detrand test poll deadline
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRouterShardsByDigest(t *testing.T) {
	w0 := newTestWorker(t, serve.Config{Workers: 1})
	w1 := newTestWorker(t, serve.Config{Workers: 1})
	rt, ts := newTestRouter(t, []string{w0.url(), w1.url()}, nil)

	nets := []string{netA, netB, netC, netN(1), netN(2), netN(3)}
	// The ring hashes the workers' random ports, so a fixed handful of
	// digests can all land on one worker: add networks until both own one.
	owners := map[int]bool{}
	ownerOf := func(n string) int {
		owner, err := rt.Cluster().Ring().Owner(digestOf(t, serve.AnalyzeRequest{Network: n}))
		if err != nil {
			t.Fatal(err)
		}
		return owner
	}
	for _, n := range nets {
		owners[ownerOf(n)] = true
	}
	for k := 4; len(owners) < 2 && len(nets) < 64; k++ {
		n := netN(k)
		owners[ownerOf(n)] = true
		nets = append(nets, n)
	}
	for _, n := range nets {
		resp, ar := postJSON(t, ts.URL, serve.AnalyzeRequest{Network: n})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze %q: status %d", n, resp.StatusCode)
		}
		if ar.Cached {
			t.Errorf("first analyze of %q reported cached", n)
		}
		// The verdict must live on exactly the ring owner.
		owner, err := rt.Cluster().Ring().Owner(ar.Digest)
		if err != nil {
			t.Fatal(err)
		}
		for wi, w := range []*testWorker{w0, w1} {
			resp, err := http.Get(w.url() + "/v1/verdict/" + ar.Digest)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			want := http.StatusNotFound
			if wi == owner {
				want = http.StatusOK
			}
			if resp.StatusCode != want {
				t.Errorf("worker %d verdict %s: status %d, want %d (owner %d)", wi, ar.Digest, resp.StatusCode, want, owner)
			}
		}
	}

	// Re-analyzing everything must be all cache hits, wherever they live.
	for _, n := range nets {
		if _, ar := postJSON(t, ts.URL, serve.AnalyzeRequest{Network: n}); !ar.Cached {
			t.Errorf("second analyze of %q not cached", n)
		}
	}
	s0, s1 := w0.stats(), w1.stats()
	if got := s0.Misses + s1.Misses; got != int64(len(nets)) {
		t.Errorf("total misses = %d, want %d", got, len(nets))
	}
	if got := s0.Hits + s1.Hits; got != int64(len(nets)) {
		t.Errorf("total hits = %d, want %d", got, len(nets))
	}
	if s0.Misses == 0 || s1.Misses == 0 {
		t.Errorf("sharding collapsed: misses split %d/%d, want work on both workers", s0.Misses, s1.Misses)
	}
}

func TestRouterVerdictEndpoint(t *testing.T) {
	w0 := newTestWorker(t, serve.Config{Workers: 1})
	_, ts := newTestRouter(t, []string{w0.url()}, nil)

	resp, err := http.Get(ts.URL + "/v1/verdict/not-a-digest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed digest: status %d, want 400", resp.StatusCode)
	}

	unknown := testDigest(0)
	resp, err = http.Get(ts.URL + "/v1/verdict/" + unknown)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown digest: status %d, want 404", resp.StatusCode)
	}

	_, ar := postJSON(t, ts.URL, serve.AnalyzeRequest{Network: netA})
	resp, err = http.Get(ts.URL + "/v1/verdict/" + ar.Digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("known digest: status %d, want 200", resp.StatusCode)
	}
	var got serve.AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !got.Cached {
		t.Error("verdict lookup not marked cached")
	}
	a, _ := json.Marshal(ar.Record)
	b, _ := json.Marshal(got.Record)
	if !bytes.Equal(a, b) {
		t.Errorf("verdict record differs from analyze record:\n%s\n%s", a, b)
	}
}

func TestRouterFailoverAndReadmission(t *testing.T) {
	w0 := newTestWorker(t, serve.Config{Workers: 1})
	w1 := newTestWorker(t, serve.Config{Workers: 1})
	workers := []*testWorker{w0, w1}
	rt, ts := newTestRouter(t, []string{w0.url(), w1.url()}, nil)

	// Find a network owned by each worker so the kill is guaranteed to
	// orphan some digest.
	ownedBy := map[int]string{}
	for i := 0; len(ownedBy) < 2 && i < 100; i++ {
		n := netN(i)
		owner, err := rt.Cluster().Ring().Owner(digestOf(t, serve.AnalyzeRequest{Network: n}))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ownedBy[owner]; !ok {
			ownedBy[owner] = n
		}
	}
	if len(ownedBy) < 2 {
		t.Fatal("could not find digests for both workers")
	}

	const victim = 0
	workers[victim].stop()

	// The victim's digest must fail over to the survivor — first request,
	// no warmup, no error surfaced to the client.
	resp, ar := postJSON(t, ts.URL, serve.AnalyzeRequest{Network: ownedBy[victim]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze during outage: status %d, want 200 via failover", resp.StatusCode)
	}
	if ar.Record.Status != "ok" {
		t.Fatalf("failover verdict status = %q, want ok", ar.Record.Status)
	}
	if rt.Snapshot().Failovers == 0 {
		t.Error("failovers counter = 0 after a forward to a dead worker")
	}

	waitFor(t, "victim ejection", func() bool { return !rt.Snapshot().Workers[victim].Healthy })

	// Restart on the same address: the prober must readmit, and the
	// digest must route home again (the survivor's copy stays where it
	// is — no contradiction, just two truthful caches).
	workers[victim].restart()
	waitFor(t, "victim readmission", func() bool {
		ws := rt.Snapshot().Workers[victim]
		return ws.Healthy && ws.Readmissions >= 1
	})
	before := workers[victim].stats().Requests
	resp, ar2 := postJSON(t, ts.URL, serve.AnalyzeRequest{Network: ownedBy[victim]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze after readmission: status %d", resp.StatusCode)
	}
	if got := workers[victim].stats().Requests; got != before+1 {
		t.Errorf("readmitted worker requests = %d, want %d (traffic must return home)", got, before+1)
	}
	// Same digest, same verdict, wherever it was computed.
	a, _ := json.Marshal(ar.Record)
	b, _ := json.Marshal(ar2.Record)
	if !bytes.Equal(a, b) {
		t.Errorf("verdict changed across failover/readmission:\n%s\n%s", a, b)
	}
}

func TestRouterKillWorkerMidLoad(t *testing.T) {
	w0 := newTestWorker(t, serve.Config{Workers: 2})
	w1 := newTestWorker(t, serve.Config{Workers: 2})
	rt, ts := newTestRouter(t, []string{w0.url(), w1.url()}, nil)
	_ = rt

	corpus := make([]string, 8)
	for i := range corpus {
		corpus[i] = netN(i)
	}

	type answer struct {
		digest string
		rec    []byte
		status int
		err    error
	}
	const loaders = 4
	const perLoader = 30
	answers := make(chan answer, loaders*perLoader)
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := 0; i < perLoader; i++ {
				body, _ := json.Marshal(serve.AnalyzeRequest{Network: corpus[(l+i)%len(corpus)]})
				resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
				if err != nil {
					answers <- answer{err: err}
					continue
				}
				var ar serve.AnalyzeResponse
				decErr := json.NewDecoder(resp.Body).Decode(&ar)
				resp.Body.Close()
				if decErr != nil {
					answers <- answer{err: decErr}
					continue
				}
				rec, _ := json.Marshal(ar.Record)
				answers <- answer{digest: ar.Digest, rec: rec, status: resp.StatusCode}
			}
		}(l)
	}

	// Kill one worker while the load is running.
	time.Sleep(50 * time.Millisecond)
	w0.stop()
	wg.Wait()
	close(answers)

	// Zero verdict errors, and no contradiction: every answer for a
	// digest is byte-identical no matter which worker produced it.
	byDigest := map[string][]byte{}
	for a := range answers {
		if a.err != nil {
			t.Fatalf("request failed during worker kill: %v", a.err)
		}
		if a.status != http.StatusOK {
			t.Fatalf("status %d during worker kill, want 200", a.status)
		}
		if prev, ok := byDigest[a.digest]; ok {
			if !bytes.Equal(prev, a.rec) {
				t.Fatalf("verdict contradiction for %s:\n%s\n%s", a.digest, prev, a.rec)
			}
			continue
		}
		byDigest[a.digest] = a.rec
	}
	if len(byDigest) != len(corpus) {
		t.Errorf("distinct digests = %d, want %d", len(byDigest), len(corpus))
	}
}

// overshootRE matches the wall-clock overshoot a deadline-stopped
// governor embeds in the partial reason ("… 27µs past the deadline").
var overshootRE = regexp.MustCompile(`[^ ]+ past the deadline`)

// normalize re-marshals a response with the partial elapsed field and
// the reason's deadline overshoot zeroed: the only nondeterministic
// content (wall-clock measured inside the governor) in an otherwise
// bit-reproducible verdict.
func normalize(t *testing.T, ar serve.AnalyzeResponse) []byte {
	t.Helper()
	if ar.Record.Partial != nil {
		p := *ar.Record.Partial
		p.Elapsed = ""
		ar.Record.Partial = &p
		ar.Record.Reason = overshootRE.ReplaceAllString(ar.Record.Reason, "Xs past the deadline")
	}
	b, err := json.Marshal(ar)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRouterBatchMatchesSingleCalls(t *testing.T) {
	// Two identical clusters: one serves the batch, the other the same
	// items as single calls in the same order. The per-item responses
	// must agree exactly (modulo the partial elapsed wall-clock), cached
	// flags and duplicate handling included.
	mkCluster := func() (string, []*testWorker) {
		w0 := newTestWorker(t, serve.Config{Workers: 2})
		w1 := newTestWorker(t, serve.Config{Workers: 2})
		_, ts := newTestRouter(t, []string{w0.url(), w1.url()}, nil)
		return ts.URL, []*testWorker{w0, w1}
	}
	batchURL, _ := mkCluster()
	singleURL, _ := mkCluster()

	items := []serve.AnalyzeRequest{
		{Network: netA},
		{Network: netB, Lint: true},
		{Network: netA},                   // duplicate: cached=true
		{Network: netC, Timeout: "1ns"},   // deadline at first poll: partial
		{Network: "process P { broken !"}, // parse error: per-item record
		{Network: netN(7), Predicates: "reach"},
	}

	resp, bresp := postBatch(t, batchURL, serve.BatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if len(bresp.Items) != len(items) {
		t.Fatalf("batch returned %d items, want %d", len(bresp.Items), len(items))
	}
	if bresp.Uniques != 4 { // netA, netB, netC+timeout, netN(7); parse error never routes
		t.Errorf("uniques = %d, want 4", bresp.Uniques)
	}

	for i, req := range items {
		resp, single := postJSON(t, singleURL, req)
		if i == 4 {
			// The parse error: a single call answers 400 with an error
			// envelope; the batch reports it as a per-item error record in
			// the same slot.
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("item %d single status = %d, want 400", i, resp.StatusCode)
			}
			if bresp.Items[i].Record.Status != "error" || bresp.Items[i].Record.Error == "" {
				t.Errorf("item %d batch record = %+v, want error record", i, bresp.Items[i].Record)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("item %d single status = %d", i, resp.StatusCode)
		}
		got := normalize(t, bresp.Items[i])
		want := normalize(t, single)
		if !bytes.Equal(got, want) {
			t.Errorf("item %d batch != single:\nbatch:  %s\nsingle: %s", i, got, want)
		}
	}
	// The partial really was a partial, or the equivalence above proved
	// nothing about partial forwarding.
	if bresp.Items[3].Record.Status != "partial" {
		t.Errorf("item 3 status = %q, want partial", bresp.Items[3].Record.Status)
	}
}

func TestRouterBodyCaps(t *testing.T) {
	w0 := newTestWorker(t, serve.Config{Workers: 1})
	_, ts := newTestRouter(t, []string{w0.url()}, func(cfg *RouterConfig) {
		cfg.MaxBodyBytes = 128
		cfg.MaxBatchBytes = 1024
		cfg.MaxBatchItems = 2
	})

	big := netA + "\n# " + strings.Repeat("x", 256)
	resp, err := http.Post(ts.URL+"/v1/analyze", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized single body: status %d, want 413", resp.StatusCode)
	}

	resp, bresp := postBatch(t, ts.URL, serve.BatchRequest{Items: []serve.AnalyzeRequest{
		{Network: netA}, {Network: big},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with oversized item: status %d", resp.StatusCode)
	}
	if bresp.Items[0].Record.Status != "ok" {
		t.Errorf("normal item status = %q", bresp.Items[0].Record.Status)
	}
	if bresp.Items[1].Record.Status != "error" || !strings.Contains(bresp.Items[1].Record.Error, "too large") {
		t.Errorf("oversized item record = %+v, want body-too-large error", bresp.Items[1].Record)
	}

	resp, _ = postBatch(t, ts.URL, serve.BatchRequest{Items: []serve.AnalyzeRequest{
		{Network: netA}, {Network: netB}, {Network: netC},
	}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("over item cap: status %d, want 413", resp.StatusCode)
	}

	huge := serve.BatchRequest{Items: []serve.AnalyzeRequest{{Network: strings.Repeat("y", 2048)}}}
	body, _ := json.Marshal(huge)
	resp, err = http.Post(ts.URL+"/v1/analyze/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("over batch byte cap: status %d, want 413", resp.StatusCode)
	}
}

func TestRouterStatusAggregation(t *testing.T) {
	w0 := newTestWorker(t, serve.Config{Workers: 1})
	w1 := newTestWorker(t, serve.Config{Workers: 1})
	rt, ts := newTestRouter(t, []string{w0.url(), w1.url()}, nil)

	nets := []string{netA, netB, netC, netA}
	for _, n := range nets {
		if resp, _ := postJSON(t, ts.URL, serve.AnalyzeRequest{Network: n}); resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze failed: %d", resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st RouterStats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decoding router statusz: %v\n%s", err, raw)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("workers = %d, want 2", len(st.Workers))
	}
	for i, ws := range st.Workers {
		if !ws.Reachable || !ws.Healthy || ws.Stats == nil {
			t.Errorf("worker %d = %+v, want reachable+healthy with stats", i, ws)
		}
		if ws.Stats != nil && ws.Stats.Runtime.Goroutines <= 0 {
			t.Errorf("worker %d runtime goroutines = %d", i, ws.Stats.Runtime.Goroutines)
		}
	}
	if st.Totals.Requests != 4 || st.Totals.Hits != 1 || st.Totals.Misses != 3 {
		t.Errorf("totals = %+v, want requests 4 hits 1 misses 3", st.Totals)
	}
	if want := 0.25; st.Totals.HitRate != want {
		t.Errorf("hit rate = %v, want %v", st.Totals.HitRate, want)
	}
	if st.Requests != 4 || st.Proxied != 4 {
		t.Errorf("router requests/proxied = %d/%d, want 4/4", st.Requests, st.Proxied)
	}
	if st.Runtime.Goroutines <= 0 || st.Runtime.Gomaxprocs <= 0 {
		t.Errorf("router runtime = %+v, want live sample", st.Runtime)
	}
	if rt.Snapshot().Failovers != 0 {
		t.Errorf("failovers = %d with all workers up", rt.Snapshot().Failovers)
	}
}

func TestRouterLintRoutes(t *testing.T) {
	w0 := newTestWorker(t, serve.Config{Workers: 1})
	w1 := newTestWorker(t, serve.Config{Workers: 1})
	_, ts := newTestRouter(t, []string{w0.url(), w1.url()}, nil)

	lint := func() (int, struct {
		Digest string `json:"digest"`
		Cached bool   `json:"cached"`
	}) {
		resp, err := http.Post(ts.URL+"/v1/lint", "text/plain", strings.NewReader(netA))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var lr struct {
			Digest string `json:"digest"`
			Cached bool   `json:"cached"`
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, lr
	}
	code, first := lint()
	if code != http.StatusOK || first.Digest == "" {
		t.Fatalf("lint: status %d resp %+v", code, first)
	}
	if first.Cached {
		t.Error("first lint reported cached")
	}
	// Same canonical text → same lint digest → same worker → cache hit.
	code, second := lint()
	if code != http.StatusOK || !second.Cached {
		t.Errorf("second lint: status %d cached %v, want cached hit", code, second.Cached)
	}
}

func TestRouterCapacityShedding(t *testing.T) {
	w0 := newTestWorker(t, serve.Config{Workers: 1})
	rt, ts := newTestRouter(t, []string{w0.url()}, func(cfg *RouterConfig) {
		cfg.Cluster.MaxInflight = 1
	})

	// Occupy the single forwarding slot directly, then watch the router
	// shed instead of queueing.
	if !rt.cluster.acquire() {
		t.Fatal("could not take the only slot")
	}
	resp, _ := postJSON(t, ts.URL, serve.AnalyzeRequest{Network: netA})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d with no free slots, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	rt.cluster.release()
	if resp, _ := postJSON(t, ts.URL, serve.AnalyzeRequest{Network: netA}); resp.StatusCode != http.StatusOK {
		t.Errorf("status %d after slot freed, want 200", resp.StatusCode)
	}
}

func TestRouterAllWorkersDown(t *testing.T) {
	w0 := newTestWorker(t, serve.Config{Workers: 1})
	rt, ts := newTestRouter(t, []string{w0.url()}, nil)
	w0.stop()

	resp, _ := postJSON(t, ts.URL, serve.AnalyzeRequest{Network: netA})
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("single with dead cluster: status %d, want 502", resp.StatusCode)
	}
	errs := rt.Snapshot().Errors
	if errs == 0 {
		t.Error("errors counter = 0 after exhausting the ring")
	}

	// A batch degrades to per-item error records, not a dropped request.
	resp, bresp := postBatch(t, ts.URL, serve.BatchRequest{Items: []serve.AnalyzeRequest{{Network: netA}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with dead cluster: status %d, want 200 with error records", resp.StatusCode)
	}
	if bresp.Items[0].Record.Status != "error" || !strings.Contains(bresp.Items[0].Record.Error, "no reachable worker") {
		t.Errorf("batch item = %+v, want no-reachable-worker error record", bresp.Items[0].Record)
	}
	// Each batch item that exhausts the ring counts like a single request.
	if got := rt.Snapshot().Errors; got != errs+1 {
		t.Errorf("errors = %d after a one-item batch exhausted the ring, want %d", got, errs+1)
	}
}

// TestRouterHealthDrain: StartDrain flips the router's /healthz to 503
// so load balancers steer away, while analyze traffic still routes.
func TestRouterHealthDrain(t *testing.T) {
	w0 := newTestWorker(t, serve.Config{Workers: 1})
	rt, ts := newTestRouter(t, []string{w0.url()}, nil)
	health := func() (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body.Status
	}
	if code, status := health(); code != http.StatusOK || status != "ok" {
		t.Fatalf("healthz before drain = %d %q, want 200 ok", code, status)
	}
	rt.StartDrain()
	if code, status := health(); code != http.StatusServiceUnavailable || status != "draining" {
		t.Fatalf("healthz after StartDrain = %d %q, want 503 draining", code, status)
	}
	resp, ar := postJSON(t, ts.URL, serve.AnalyzeRequest{Network: netA})
	if resp.StatusCode != http.StatusOK || ar.Record.Status != "ok" {
		t.Errorf("analyze during router drain = %d status %q, want a full 200 verdict",
			resp.StatusCode, ar.Record.Status)
	}
}

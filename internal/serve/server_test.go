package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"fspnet/internal/guard/faultinject"
	"fspnet/internal/verdictjson"
)

// Two observably different formattings of the same tiny network: the
// canonicalization step must give them one digest and one cache entry.
const (
	netA = "process P { start s0; s0 a s1 }\nprocess Q { start q0; q0 a q1 }"

	netAReformatted = `# same network, different spelling
process P {
    start s0
    s0 a s1
}
process Q { start q0; q0 a q1 }`

	netB = "process P { start s0; s0 b s1 }\nprocess Q { start q0; q0 b q1 }"

	netC = "process P { start s0; s0 c s1; s1 d s2 }\nprocess Q { start q0; q0 c q1; q1 d q2 }"
)

// blockHook parks every governed run inside its first guard poll until
// release is closed: the deterministic way to hold a worker busy while a
// test saturates the queue, disconnects the client, or starts a drain.
type blockHook struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newBlockHook() *blockHook {
	return &blockHook{entered: make(chan struct{}), release: make(chan struct{})}
}

func (h *blockHook) Fire(pass string, level int) error {
	h.once.Do(func() { close(h.entered) })
	<-h.release
	return nil
}

func (h *blockHook) Panic(string, int) bool { return false }

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJSON(t *testing.T, url string, req AnalyzeRequest) (*http.Response, AnalyzeResponse) {
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
	var ar AnalyzeResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusUnprocessableEntity {
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, ar
}

func getStats(t *testing.T, url string) Stats {
	t.Helper()
	resp, err := http.Get(url + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// postAsync issues an analyze POST from a goroutine and delivers the
// status code; -1 signals a transport error.
func postAsync(t *testing.T, url, net string) chan int {
	t.Helper()
	codes := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/analyze", "text/plain", strings.NewReader(net))
		if err != nil {
			codes <- -1
			return
		}
		resp.Body.Close()
		codes <- resp.StatusCode
	}()
	return codes
}

// waitStats polls /statusz until cond holds or the deadline passes.
func waitStats(t *testing.T, url string, cond func(Stats) bool) Stats {
	t.Helper()
	var st Stats
	for i := 0; i < 200; i++ {
		st = getStats(t, url)
		if cond(st) {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("condition never held; last stats: %+v", st)
	return st
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
}

// TestHitMissCanonicalization is the cache-soundness core: a reformatted
// spelling of an already-analyzed network must be answered from cache,
// with the identical record and digest, because the key is the SHA-256 of
// the canonical text.
func TestHitMissCanonicalization(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, first := postJSON(t, ts.URL, AnalyzeRequest{Network: netA})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first POST = %d, want 200", resp.StatusCode)
	}
	if first.Cached {
		t.Error("first request reported cached=true")
	}
	if first.Record.Status != verdictjson.StatusOK {
		t.Fatalf("record status = %q, want ok", first.Record.Status)
	}
	// P and Q handshake once and both stop at leaves: all three hold.
	for name, b := range map[string]*bool{"Su": first.Record.Su, "Sa": first.Record.Sa, "Sc": first.Record.Sc} {
		if b == nil || !*b {
			t.Errorf("%s = %v, want true", name, b)
		}
	}

	// Raw-body spelling of the same network, parameters in the query.
	resp2, err := http.Post(ts.URL+"/v1/analyze?process=0", "text/plain", strings.NewReader(netAReformatted))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var second AnalyzeResponse
	if err := json.NewDecoder(resp2.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("reformatted request missed the cache; canonicalization is broken")
	}
	if second.Digest != first.Digest {
		t.Errorf("digests differ: %s vs %s", first.Digest, second.Digest)
	}
	firstJSON, _ := json.Marshal(first.Record)
	secondJSON, _ := json.Marshal(second.Record)
	if !bytes.Equal(firstJSON, secondJSON) {
		t.Errorf("cached record differs:\nfirst:  %s\nsecond: %s", firstJSON, secondJSON)
	}

	st := getStats(t, ts.URL)
	if st.Requests != 2 || st.Hits != 1 || st.Misses != 1 || st.CacheEntries != 1 {
		t.Errorf("stats = requests=%d hits=%d misses=%d entries=%d, want 2/1/1/1",
			st.Requests, st.Hits, st.Misses, st.CacheEntries)
	}
	if _, ok := st.Latency["acyclic/all"]; !ok {
		t.Errorf("latency quantiles missing acyclic/all class: %+v", st.Latency)
	}
}

func TestVerdictLookup(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, first := postJSON(t, ts.URL, AnalyzeRequest{Network: netA})

	resp, err := http.Get(ts.URL + "/v1/verdict/" + first.Digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lookup = %d, want 200", resp.StatusCode)
	}
	var got AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !got.Cached || got.Record.Status != verdictjson.StatusOK {
		t.Errorf("lookup response = %+v", got)
	}

	missing, err := http.Get(ts.URL + "/v1/verdict/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	defer missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("unknown digest = %d, want 404", missing.StatusCode)
	}
}

// TestEvictionDeterminism drives a capacity-1 cache through a fixed
// request sequence and asserts the exact hit/miss/eviction counters: the
// LRU must behave as a pure function of the sequence.
func TestEvictionDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: 1})
	sequence := []struct {
		net        string
		wantCached bool
	}{
		{netA, false}, // miss, cache [A]
		{netB, false}, // miss, evicts A, cache [B]
		{netA, false}, // miss again (was evicted), evicts B, cache [A]
		{netA, true},  // hit
	}
	for i, step := range sequence {
		resp, ar := postJSON(t, ts.URL, AnalyzeRequest{Network: step.net})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d: status %d", i, resp.StatusCode)
		}
		if ar.Cached != step.wantCached {
			t.Errorf("step %d: cached = %t, want %t", i, ar.Cached, step.wantCached)
		}
	}
	st := getStats(t, ts.URL)
	if st.Misses != 3 || st.Hits != 1 || st.Evictions != 2 || st.CacheEntries != 1 {
		t.Errorf("stats = misses=%d hits=%d evictions=%d entries=%d, want 3/1/2/1",
			st.Misses, st.Hits, st.Evictions, st.CacheEntries)
	}
}

// TestRejectWhenSaturated fills the worker (1) and the queue (1) with
// blocked analyses; the next distinct request must bounce with 429 and
// the rejected counter, and the blocked requests must still complete
// once released.
func TestRejectWhenSaturated(t *testing.T) {
	hook := newBlockHook()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Hook: hook})

	first := postAsync(t, ts.URL, netA)
	<-hook.entered // the worker is now parked inside the analysis
	second := postAsync(t, ts.URL, netB)
	waitStats(t, ts.URL, func(st Stats) bool { return st.Queued == 1 })

	resp, _ := postJSON(t, ts.URL, AnalyzeRequest{Network: netC})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST = %d, want 429", resp.StatusCode)
	}

	close(hook.release)
	for i, codes := range []chan int{first, second} {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("blocked request %d finished with %d, want 200", i, code)
		}
	}
	st := getStats(t, ts.URL)
	if st.Rejected != 1 || st.Misses != 2 || st.Inflight != 0 || st.Queued != 0 {
		t.Errorf("stats = rejected=%d misses=%d inflight=%d queued=%d, want 1/2/0/0",
			st.Rejected, st.Misses, st.Inflight, st.Queued)
	}
}

// cancelablePost issues a raw-body analyze POST bound to ctx and reports
// the client-side error once the request ends.
func cancelablePost(t *testing.T, ctx context.Context, url, net string) chan error {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/analyze",
		strings.NewReader(net))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	return errc
}

// TestClientCancelWhileQueued disconnects a client whose request is
// admitted but still waiting for a worker: the wait must end immediately
// and be tallied as canceled, without the analysis ever starting.
func TestClientCancelWhileQueued(t *testing.T) {
	hook := newBlockHook()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Hook: hook})

	running := postAsync(t, ts.URL, netA)
	<-hook.entered // the only worker is parked
	ctx, cancel := context.WithCancel(context.Background())
	queuedErr := cancelablePost(t, ctx, ts.URL, netB)
	waitStats(t, ts.URL, func(st Stats) bool { return st.Queued == 1 })

	cancel() // the queued client walks away
	if err := <-queuedErr; err == nil {
		t.Error("canceled request returned no client-side error")
	}
	st := waitStats(t, ts.URL, func(st Stats) bool { return st.Canceled == 1 })
	if st.Queued != 0 {
		t.Errorf("queued gauge = %d after cancellation, want 0", st.Queued)
	}

	close(hook.release)
	if code := <-running; code != http.StatusOK {
		t.Errorf("running request finished with %d, want 200", code)
	}
	// netB never ran: only netA's verdict is cached.
	if st := getStats(t, ts.URL); st.Misses != 1 || st.CacheEntries != 1 {
		t.Errorf("canceled queued request ran anyway: %+v", st)
	}
}

// TestClientCancelMidAnalysis disconnects the client while its analysis
// is parked inside the governor; the run must stop at the next poll and
// be tallied as canceled, freeing the worker for the next request.
func TestClientCancelMidAnalysis(t *testing.T) {
	hook := newBlockHook()
	_, ts := newTestServer(t, Config{Workers: 1, Hook: hook})

	ctx, cancel := context.WithCancel(context.Background())
	errc := cancelablePost(t, ctx, ts.URL, netA)
	<-hook.entered
	cancel() // client walks away mid-analysis
	if err := <-errc; err == nil {
		t.Error("canceled request returned no client-side error")
	}
	// Give the server's connection watcher time to observe the disconnect
	// and cancel r.Context() before the analysis is allowed to resume.
	time.Sleep(500 * time.Millisecond)
	close(hook.release)

	st := waitStats(t, ts.URL, func(st Stats) bool { return st.Canceled == 1 })
	if st.Misses != 0 || st.CacheEntries != 0 {
		t.Errorf("canceled run must not populate the cache: %+v", st)
	}
	// The worker is free again: a fresh request completes normally.
	resp, _ := postJSON(t, ts.URL, AnalyzeRequest{Network: netB})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-cancel request = %d, want 200", resp.StatusCode)
	}
}

// assertPartial checks the shape of a status "partial" record: a reason,
// a pass name, and three-valued bounds that respect S_u ⇒ S_a ⇒ S_c.
func assertPartial(t *testing.T, rec verdictjson.Record, wantReason string) {
	t.Helper()
	if rec.Status != verdictjson.StatusPartial {
		t.Fatalf("record status = %q, want partial (record %+v)", rec.Status, rec)
	}
	if !strings.Contains(rec.Reason, wantReason) {
		t.Errorf("reason = %q, want it to mention %q", rec.Reason, wantReason)
	}
	if rec.Partial == nil {
		t.Fatal("partial record carries no partial verdict")
	}
	if rec.Partial.Pass == "" {
		t.Error("partial verdict names no pass")
	}
	for _, b := range []string{rec.Partial.Su, rec.Partial.Sa, rec.Partial.Sc} {
		if b != "true" && b != "false" && b != "?" {
			t.Errorf("malformed bound %q", b)
		}
	}
	if !rec.Partial.Consistent() {
		t.Errorf("bounds contradict S_u ⇒ S_a ⇒ S_c: %+v", rec.Partial)
	}
}

// TestPartialVerdictFaultInject forces deadline expiry at the first BFS
// barrier: the response must be a 200 with a well-formed partial verdict,
// and partials must never enter the cache.
func TestPartialVerdictFaultInject(t *testing.T) {
	_, ts := newTestServer(t, Config{Hook: faultinject.DeadlineAt("bfs", 0)})
	for i := 0; i < 2; i++ {
		resp, ar := postJSON(t, ts.URL, AnalyzeRequest{Network: netA})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %d = %d, want 200 (partial is a result, not an error)", i, resp.StatusCode)
		}
		if ar.Cached {
			t.Errorf("POST %d answered from cache; partials must not be cached", i)
		}
		assertPartial(t, ar.Record, "deadline")
	}
	st := getStats(t, ts.URL)
	if st.Partials != 2 || st.CacheEntries != 0 || st.Misses != 0 {
		t.Errorf("stats = partials=%d entries=%d misses=%d, want 2/0/0", st.Partials, st.CacheEntries, st.Misses)
	}
}

// TestRequestDeadlinePartial exercises the real per-request timeout: the
// analysis is parked past its own deadline, and the next governor poll
// turns it into a partial verdict.
func TestRequestDeadlinePartial(t *testing.T) {
	hook := newBlockHook()
	_, ts := newTestServer(t, Config{Workers: 1, Hook: hook})

	type result struct {
		code int
		ar   AnalyzeResponse
	}
	resc := make(chan result, 1)
	go func() {
		resp, ar := postJSON(t, ts.URL, AnalyzeRequest{Network: netA, Timeout: "50ms"})
		resc <- result{resp.StatusCode, ar}
	}()
	<-hook.entered
	time.Sleep(80 * time.Millisecond) // overshoot the request deadline
	close(hook.release)

	res := <-resc
	if res.code != http.StatusOK {
		t.Fatalf("POST = %d, want 200", res.code)
	}
	assertPartial(t, res.ar.Record, "deadline")
}

// TestDrainCancelInflight is the SIGTERM force-stop path: CancelInflight
// stops a parked analysis through the drain context, and since the client
// is still connected it receives the partial verdict instead of a dropped
// connection.
func TestDrainCancelInflight(t *testing.T) {
	hook := newBlockHook()
	s, ts := newTestServer(t, Config{Workers: 1, Hook: hook})

	type result struct {
		code int
		ar   AnalyzeResponse
	}
	resc := make(chan result, 1)
	go func() {
		resp, ar := postJSON(t, ts.URL, AnalyzeRequest{Network: netA})
		resc <- result{resp.StatusCode, ar}
	}()
	<-hook.entered
	s.CancelInflight()
	close(hook.release)

	res := <-resc
	if res.code != http.StatusOK {
		t.Fatalf("drained POST = %d, want 200", res.code)
	}
	assertPartial(t, res.ar.Record, "canceled")
	st := getStats(t, ts.URL)
	if st.Partials != 1 || st.Inflight != 0 {
		t.Errorf("stats = partials=%d inflight=%d, want 1/0", st.Partials, st.Inflight)
	}
}

// TestBadRequests table-tests the 400 surface.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  AnalyzeRequest
	}{
		{"empty network", AnalyzeRequest{}},
		{"parse error", AnalyzeRequest{Network: "process {"}},
		{"process out of range", AnalyzeRequest{Network: netA, Process: 7}},
		{"negative process", AnalyzeRequest{Network: netA, Process: -1}},
		{"bad mode", AnalyzeRequest{Network: netA, Mode: "sideways"}},
		{"bad predicates", AnalyzeRequest{Network: netA, Predicates: "none"}},
		{"bad timeout", AnalyzeRequest{Network: netA, Timeout: "soon"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _ := postJSON(t, ts.URL, tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
	if st := getStats(t, ts.URL); st.Requests != 0 {
		t.Errorf("malformed posts counted as requests: %d", st.Requests)
	}
}

// TestReachPredicates asks for the engine-only S_u/S_c analysis: the
// record must omit adversity, and the digest must differ from the "all"
// digest of the same network (different answer shape, different address).
func TestReachPredicates(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, reach := postJSON(t, ts.URL, AnalyzeRequest{Network: netA, Predicates: PredicatesReach})
	if reach.Record.Status != verdictjson.StatusOK {
		t.Fatalf("reach record = %+v", reach.Record)
	}
	if reach.Record.Sa != nil {
		t.Error("reach analysis reported an adversity verdict")
	}
	if reach.Record.Su == nil || !*reach.Record.Su || reach.Record.Sc == nil || !*reach.Record.Sc {
		t.Errorf("reach verdict = %+v, want S_u=S_c=true", reach.Record)
	}
	_, all := postJSON(t, ts.URL, AnalyzeRequest{Network: netA})
	if all.Digest == reach.Digest {
		t.Error("reach and all analyses share a digest")
	}
	// Explicit mode equal to the auto-resolved one shares the cache line.
	_, explicit := postJSON(t, ts.URL, AnalyzeRequest{Network: netA, Mode: "acyclic", Predicates: PredicatesReach})
	if !explicit.Cached || explicit.Digest != reach.Digest {
		t.Errorf("explicit acyclic mode missed the auto-resolved cache entry: %+v", explicit)
	}
}

// TestLargeFixtureAllPredicates serves the 20-process philosophers10
// fixture with the default predicates=all under fspd's default limits
// (60s cap, no budget): the compose-free belief engine must return a
// complete S_a verdict — the request that used to exhaust its budget
// composing the 19-process context.
func TestLargeFixtureAllPredicates(t *testing.T) {
	if testing.Short() {
		t.Skip("large fixture in -short mode")
	}
	src, err := os.ReadFile("../../testdata/philosophers10.fsp")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{MaxTimeout: 60 * time.Second})
	resp, ar := postJSON(t, ts.URL, AnalyzeRequest{Network: string(src)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ar.Record.Status != verdictjson.StatusOK {
		t.Fatalf("record = %+v, want a complete verdict", ar.Record)
	}
	if ar.Record.Su == nil || ar.Record.Sa == nil || ar.Record.Sc == nil {
		t.Fatalf("record = %+v, want all three predicates decided", ar.Record)
	}
	if *ar.Record.Su || *ar.Record.Sa || !*ar.Record.Sc {
		t.Errorf("verdict (Su=%v Sa=%v Sc=%v), want (false,false,true)",
			*ar.Record.Su, *ar.Record.Sa, *ar.Record.Sc)
	}
}

// TestShapeError routes a domain violation (explicit acyclic analysis of
// a cyclic network) to 422 with a status "error" record.
func TestShapeError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cyclicNet := "process P { start s0; s0 a s0 }\nprocess Q { start t0; t0 a t0 }"
	resp, ar := postJSON(t, ts.URL, AnalyzeRequest{Network: cyclicNet, Mode: "acyclic"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	if ar.Record.Status != verdictjson.StatusError || ar.Record.Error == "" {
		t.Errorf("record = %+v, want status error with a message", ar.Record)
	}
	if st := getStats(t, ts.URL); st.Errors != 1 || st.CacheEntries != 0 {
		t.Errorf("stats = errors=%d entries=%d, want 1/0", st.Errors, st.CacheEntries)
	}
}

// TestConcurrentIdenticalRequests hammers one network from many
// goroutines: every response must carry the same digest and verdict, and
// the cache must end with exactly one entry — the determinism the race
// detector checks from the memory side.
func TestConcurrentIdenticalRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	const clients = 16
	digests := make(chan string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, ar := postJSON(t, ts.URL, AnalyzeRequest{Network: netC})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d", resp.StatusCode)
			}
			digests <- ar.Digest
		}()
	}
	wg.Wait()
	close(digests)
	first := ""
	for d := range digests {
		if first == "" {
			first = d
		} else if d != first {
			t.Errorf("digest mismatch: %s vs %s", first, d)
		}
	}
	st := getStats(t, ts.URL)
	if st.CacheEntries != 1 || st.Hits+st.Misses+st.Deduped != clients {
		t.Errorf("stats = entries=%d hits=%d misses=%d deduped=%d, want 1 entry and %d answers",
			st.CacheEntries, st.Hits, st.Misses, st.Deduped, clients)
	}
	if st.Misses < 1 {
		t.Errorf("misses = %d, want at least the first flight's run", st.Misses)
	}
}

// TestStatuszBeliefTotals requires completed predicates=all analyses to
// accumulate belief-engine counters under their class key, and
// predicates=reach analyses to stay invisible to the belief map.
func TestStatuszBeliefTotals(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if resp, _ := postJSON(t, ts.URL, AnalyzeRequest{Network: netA}); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze all: status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL, AnalyzeRequest{Network: netB, Predicates: PredicatesReach}); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze reach: status %d", resp.StatusCode)
	}
	st := getStats(t, ts.URL)
	bt, ok := st.Belief["acyclic/all"]
	if !ok {
		t.Fatalf("no belief totals for acyclic/all: %+v", st.Belief)
	}
	if bt.Analyses != 1 || bt.CtxStates == 0 || bt.Positions == 0 {
		t.Fatalf("implausible belief totals: %+v", bt)
	}
	if _, ok := st.Belief["acyclic/reach"]; ok {
		t.Fatalf("reach class leaked belief totals: %+v", st.Belief)
	}
	// A cache hit must not re-count.
	if resp, _ := postJSON(t, ts.URL, AnalyzeRequest{Network: netA}); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze repeat: status %d", resp.StatusCode)
	}
	if bt := getStats(t, ts.URL).Belief["acyclic/all"]; bt.Analyses != 1 {
		t.Fatalf("cache hit perturbed belief totals: %+v", bt)
	}
}

// TestPhilosophers20AllPredicates serves the 40-process philosophers20
// fixture with predicates=all under the fspd defaults (60s max timeout,
// no state budget). The joint space is astronomically past any budget;
// the witness probes decide all three predicates in milliseconds.
func TestPhilosophers20AllPredicates(t *testing.T) {
	if testing.Short() {
		t.Skip("large fixture in -short mode")
	}
	src, err := os.ReadFile("../../testdata/philosophers20.fsp")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{MaxTimeout: 60 * time.Second})
	resp, ar := postJSON(t, ts.URL, AnalyzeRequest{Network: string(src)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ar.Record.Status != verdictjson.StatusOK {
		t.Fatalf("record = %+v, want a complete verdict", ar.Record)
	}
	if ar.Record.Su == nil || ar.Record.Sa == nil || ar.Record.Sc == nil {
		t.Fatalf("record = %+v, want all three predicates decided", ar.Record)
	}
	if *ar.Record.Su || *ar.Record.Sa || !*ar.Record.Sc {
		t.Errorf("verdict (Su=%v Sa=%v Sc=%v), want (false,false,true)",
			*ar.Record.Su, *ar.Record.Sa, *ar.Record.Sc)
	}
	// The probes' visits are visible on /statusz.
	st := getStats(t, ts.URL)
	et, ok := st.Explore["cyclic/all"]
	if !ok {
		t.Fatalf("no explore totals for cyclic/all: %+v", st.Explore)
	}
	if et.ProbeStates == 0 {
		t.Errorf("explore totals = %+v, want probe activity", et)
	}
}

// TestPhilosophers12AllPredicates serves the 24-process philosophers12
// fixture with predicates=all under the fspd defaults (60s max timeout,
// no state budget): the engines must decide all three predicates well
// inside the deadline, and the verdict must be the ring's usual
// (Su=false, Sa=false, Sc=true).
func TestPhilosophers12AllPredicates(t *testing.T) {
	if testing.Short() {
		t.Skip("large fixture in -short mode")
	}
	src, err := os.ReadFile("../../testdata/philosophers12.fsp")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{MaxTimeout: 60 * time.Second})
	resp, ar := postJSON(t, ts.URL, AnalyzeRequest{Network: string(src)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ar.Record.Status != verdictjson.StatusOK {
		t.Fatalf("record = %+v, want a complete verdict", ar.Record)
	}
	if ar.Record.Su == nil || ar.Record.Sa == nil || ar.Record.Sc == nil {
		t.Fatalf("record = %+v, want all three predicates decided", ar.Record)
	}
	if *ar.Record.Su || *ar.Record.Sa || !*ar.Record.Sc {
		t.Errorf("verdict (Su=%v Sa=%v Sc=%v), want (false,false,true)",
			*ar.Record.Su, *ar.Record.Sa, *ar.Record.Sc)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"
)

func postBatch(t *testing.T, url string, breq BatchRequest) (*http.Response, BatchResponse) {
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
	var bresp BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&bresp); err != nil {
			t.Fatalf("decoding batch response: %v", err)
		}
	}
	return resp, bresp
}

// overshootRE matches the wall-clock overshoot a deadline-stopped
// governor embeds in the partial reason.
var overshootRE = regexp.MustCompile(`[^ ]+ past the deadline`)

// normalizeResp re-marshals a response with the partial's elapsed field
// and the reason's overshoot zeroed — the only wall-clock-dependent
// content in a verdict. Everything else must match byte for byte.
func normalizeResp(t *testing.T, ar AnalyzeResponse) []byte {
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

// TestBatchMatchesSingleCalls is the batch contract: the response to a
// batch equals the responses to the same requests issued singly in the
// same order against an identically configured fresh server — cached
// flags, duplicate collapsing, warnings, and partials included.
func TestBatchMatchesSingleCalls(t *testing.T) {
	_, batchTS := newTestServer(t, Config{Workers: 2})
	_, singleTS := newTestServer(t, Config{Workers: 2})

	items := []AnalyzeRequest{
		{Network: netA},
		{Network: netB, Lint: true},
		{Network: netA},                 // duplicate: cached=true like a repeat call
		{Network: netAReformatted},      // same canonical network: also cached
		{Network: netC, Timeout: "1ns"}, // deadline at first poll: partial
		{Network: netN(9), Predicates: "reach"},
	}
	resp, bresp := postBatch(t, batchTS.URL, BatchRequest{Items: items})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if len(bresp.Items) != len(items) {
		t.Fatalf("batch returned %d items, want %d", len(bresp.Items), len(items))
	}
	if bresp.Uniques != 4 {
		t.Errorf("uniques = %d, want 4 (netA and its reformatting collapse)", bresp.Uniques)
	}
	for i, req := range items {
		resp, single := postJSON(t, singleTS.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("item %d single status %d", i, resp.StatusCode)
		}
		got, want := normalizeResp(t, bresp.Items[i]), normalizeResp(t, single)
		if !bytes.Equal(got, want) {
			t.Errorf("item %d batch != single:\nbatch:  %s\nsingle: %s", i, got, want)
		}
	}
	if bresp.Items[4].Record.Status != "partial" {
		t.Errorf("item 4 status = %q, want partial", bresp.Items[4].Record.Status)
	}

	// The batch must have run the same analyses as the singles. (Hits
	// differ by design: in-batch duplicates collapse before the cache,
	// so they surface as cached items without charging a lookup.)
	bs, ss := getStats(t, batchTS.URL), getStats(t, singleTS.URL)
	if bs.Misses != ss.Misses || bs.Requests != ss.Requests {
		t.Errorf("batch stats misses/requests = %d/%d, singles = %d/%d",
			bs.Misses, bs.Requests, ss.Misses, ss.Requests)
	}
	if bs.Batches != 1 || bs.BatchItems != int64(len(items)) {
		t.Errorf("batches/batchItems = %d/%d, want 1/%d", bs.Batches, bs.BatchItems, len(items))
	}
}

func TestBatchPerItemErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, bresp := postBatch(t, ts.URL, BatchRequest{Items: []AnalyzeRequest{
		{Network: "process P { broken !"},
		{Network: netA, Mode: "sideways"},
		{Network: netA, Timeout: "not-a-duration"},
		{Network: netA},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, want 200 with per-item records", resp.StatusCode)
	}
	for i, wantFrag := range []string{"parsing network", "unknown mode", "bad timeout", ""} {
		rec := bresp.Items[i].Record
		if wantFrag == "" {
			if rec.Status != "ok" {
				t.Errorf("item %d = %+v, want ok", i, rec)
			}
			continue
		}
		if rec.Status != "error" || !strings.Contains(rec.Error, wantFrag) {
			t.Errorf("item %d = %+v, want error containing %q", i, rec, wantFrag)
		}
	}
	if bresp.Uniques != 1 {
		t.Errorf("uniques = %d, want 1 (only the valid item routes)", bresp.Uniques)
	}
}

func TestBatchRejectionsBecomeItemErrors(t *testing.T) {
	h := newBlockHook()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Hook: h})
	_ = s

	// Park one single analysis inside the governor: it holds the only
	// worker slot and one of the two admission tickets.
	codes := postAsync(t, ts.URL, netN(50))
	<-h.entered

	// Three distinct uncached items compete for the one remaining
	// admission ticket: exactly one gets it, two are turned into
	// per-item queue-full records.
	type batchResult struct {
		resp  *http.Response
		bresp BatchResponse
	}
	results := make(chan batchResult, 1)
	go func() {
		body, _ := json.Marshal(BatchRequest{Items: []AnalyzeRequest{
			{Network: netN(51)}, {Network: netN(52)}, {Network: netN(53)},
		}})
		resp, err := http.Post(ts.URL+"/v1/analyze/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			results <- batchResult{}
			return
		}
		defer resp.Body.Close()
		var bresp BatchResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&bresp); err != nil {
				t.Error(err)
			}
		}
		results <- batchResult{resp: resp, bresp: bresp}
	}()

	// The two rejections happen immediately; then free the pool so the
	// admitted item (and the parked single) can finish.
	waitStats(t, ts.URL, func(st Stats) bool { return st.Rejected == 2 })
	close(h.release)

	res := <-results
	if res.resp == nil || res.resp.StatusCode != http.StatusOK {
		t.Fatalf("batch response = %+v, want 200", res.resp)
	}
	if <-codes != http.StatusOK {
		t.Fatal("parked single did not complete")
	}
	ok, rejected := 0, 0
	for _, item := range res.bresp.Items {
		switch {
		case item.Record.Status == "ok":
			ok++
		case strings.Contains(item.Record.Error, "queue is full"):
			rejected++
		default:
			t.Errorf("unexpected item record %+v", item.Record)
		}
	}
	if ok != 1 || rejected != 2 {
		t.Errorf("ok/rejected items = %d/%d, want 1/2", ok, rejected)
	}
}

func TestBodyCaps(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 128, MaxBatchBytes: 1024, MaxBatchItems: 2})

	big := netA + "\n# " + strings.Repeat("x", 256)
	resp, err := http.Post(ts.URL+"/v1/analyze", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized analyze body: status %d, want 413", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/lint", "text/plain", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized lint body: status %d, want 413", resp.StatusCode)
	}

	// In a batch, an oversized item is a per-item record, not a 413.
	resp, bresp := postBatch(t, ts.URL, BatchRequest{Items: []AnalyzeRequest{
		{Network: netA}, {Network: big},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with oversized item: status %d", resp.StatusCode)
	}
	if bresp.Items[0].Record.Status != "ok" {
		t.Errorf("normal item = %+v", bresp.Items[0].Record)
	}
	if bresp.Items[1].Record.Status != "error" || !strings.Contains(bresp.Items[1].Record.Error, "too large") {
		t.Errorf("oversized item = %+v, want body-too-large error", bresp.Items[1].Record)
	}

	// Whole-batch caps stay hard 413s.
	if resp, _ := postBatch(t, ts.URL, BatchRequest{Items: []AnalyzeRequest{
		{Network: netA}, {Network: netB}, {Network: netC},
	}}); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("over item cap: status %d, want 413", resp.StatusCode)
	}
	body, _ := json.Marshal(BatchRequest{Items: []AnalyzeRequest{{Network: strings.Repeat("y", 2048)}}})
	resp, err = http.Post(ts.URL+"/v1/analyze/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("over batch byte cap: status %d, want 413", resp.StatusCode)
	}

	// One under the cap still works.
	if resp, _ := postJSON(t, ts.URL, AnalyzeRequest{Network: netA}); resp.StatusCode != http.StatusOK {
		t.Errorf("under-cap analyze: status %d, want 200", resp.StatusCode)
	}
	if resp, _ := postBatch(t, ts.URL, BatchRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
}

func TestVerdictMalformedDigest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, bad := range []string{
		"zzz",
		strings.Repeat("0", 63),
		strings.Repeat("0", 65),
		strings.ToUpper(strings.Repeat("ab", 32)),
	} {
		resp, err := http.Get(ts.URL + "/v1/verdict/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("verdict %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestVerdictReadThroughAfterEviction pins the L2 semantics on the
// lookup endpoint itself: a digest evicted from the LRU but still on
// disk is served (and promoted back into memory) by GET /v1/verdict.
func TestVerdictReadThroughAfterEviction(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, CacheEntries: 1, Store: StoreConfig{Dir: dir}})

	_, first := postJSON(t, ts.URL, AnalyzeRequest{Network: netA})
	if resp, _ := postJSON(t, ts.URL, AnalyzeRequest{Network: netB}); resp.StatusCode != http.StatusOK {
		t.Fatal("second analyze failed")
	}

	resp, err := http.Get(ts.URL + "/v1/verdict/" + first.Digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evicted digest lookup: status %d, want 200 via read-through", resp.StatusCode)
	}
	var got AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(first.Record)
	b, _ := json.Marshal(got.Record)
	if !bytes.Equal(a, b) {
		t.Errorf("read-through record differs:\n%s\n%s", a, b)
	}
	st := getStats(t, ts.URL)
	if st.DiskHits != 1 {
		t.Errorf("diskHits = %d, want 1", st.DiskHits)
	}
	// Promotion put it back in the 1-entry LRU: the next lookup is pure
	// memory.
	resp2, err := http.Get(ts.URL + "/v1/verdict/" + first.Digest)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if st := getStats(t, ts.URL); st.DiskHits != 1 {
		t.Errorf("diskHits after promoted lookup = %d, want still 1", st.DiskHits)
	}
}

// TestBatchClientGone: a batch whose client disconnects mid-run must
// not leak goroutines or write to a dead connection. Under single-flight
// the disconnect drops the run's last waiter, so the run is canceled at
// its next poll: nothing is cached, and the next request for the same
// network is a fresh miss that answers the correct verdict.
func TestBatchClientGone(t *testing.T) {
	h := newBlockHook()
	s, ts := newTestServer(t, Config{Workers: 1, Hook: h})

	body, _ := json.Marshal(BatchRequest{Items: []AnalyzeRequest{{Network: netN(60)}}})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 200 * time.Millisecond}
	if _, err := client.Do(req); err == nil {
		t.Fatal("batch returned before release, want client timeout")
	}
	// Release the parked run only once the server has seen the disconnect
	// and dropped the flight's last waiter; releasing earlier races the
	// run's completion against the cancellation.
	abandoned := func() bool {
		s.flightMu.Lock()
		defer s.flightMu.Unlock()
		for _, f := range s.flights {
			if f.waiters == 0 {
				return true
			}
		}
		return false
	}
	for i := 0; !abandoned(); i++ {
		if i == 500 {
			t.Fatal("server never dropped the disconnected batch's waiter")
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(h.release)

	st := waitStats(t, ts.URL, func(st Stats) bool { return st.Canceled == 1 })
	if st.Misses != 0 || st.CacheEntries != 0 {
		t.Errorf("canceled batch run must not populate the cache: %+v", st)
	}
	_, ar := postJSON(t, ts.URL, AnalyzeRequest{Network: netN(60)})
	if ar.Cached {
		t.Error("request after the canceled batch was a cache hit, want a miss")
	}
	_, ref := newTestServer(t, Config{Workers: 1})
	_, want := postJSON(t, ref.URL, AnalyzeRequest{Network: netN(60)})
	got, _ := json.Marshal(ar.Record)
	exp, _ := json.Marshal(want.Record)
	if want.Record.Status != "ok" || !bytes.Equal(got, exp) {
		t.Errorf("verdict after the canceled batch = %s, want %s", got, exp)
	}
}

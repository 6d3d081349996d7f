package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"fspnet/internal/explore"
	"fspnet/internal/store"
	"fspnet/internal/verdictjson"
)

// netN generates the i-th of a family of distinct two-process networks,
// each its own digest.
func netN(i int) string {
	return fmt.Sprintf("process P { start s0; s0 x%d s1 }\nprocess Q { start q0; q0 x%d q1 }", i, i)
}

func getHealth(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
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

func TestHealthzDrain503(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	if code, status := getHealth(t, ts.URL); code != http.StatusOK || status != "ok" {
		t.Fatalf("healthz before drain = %d %q, want 200 ok", code, status)
	}

	s.StartDrain()
	if code, status := getHealth(t, ts.URL); code != http.StatusServiceUnavailable || status != "draining" {
		t.Fatalf("healthz during drain = %d %q, want 503 draining", code, status)
	}
	// The health drain must NOT cancel analysis traffic: requests admitted
	// during the grace period still run to completion.
	resp, ar := postJSON(t, ts.URL, AnalyzeRequest{Network: netA})
	if resp.StatusCode != http.StatusOK || ar.Record.Status != "ok" {
		t.Fatalf("analyze during health drain = %d status %q, want a full 200 verdict",
			resp.StatusCode, ar.Record.Status)
	}

	// The hard drain keeps the 503.
	s.CancelInflight()
	if code, _ := getHealth(t, ts.URL); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after CancelInflight = %d, want 503", code)
	}
}

func TestRetryAfterOn429(t *testing.T) {
	hook := newBlockHook()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Hook: hook})

	// Seed the latency ring so the hint is demonstrably latency-derived:
	// a 2.5s p90 must round up to a 3s hint.
	s.classes.record("acyclic/all", 2500*time.Millisecond, explore.Stats{}, nil)

	first := postAsync(t, ts.URL, netA)
	<-hook.entered // the worker is parked inside the governor
	second := postAsync(t, ts.URL, netB)
	waitStats(t, ts.URL, func(st Stats) bool { return st.Queued == 1 })

	// Admission capacity (1 worker + 1 queue slot) is now exhausted; the
	// next distinct request bounces with the hint.
	resp, err := http.Post(ts.URL+"/v1/analyze", "text/plain", bytes.NewReader([]byte(netC)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated analyze = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs != 3 {
		t.Errorf("Retry-After = %q, want \"3\" (ceil of the 2.5s p90)", ra)
	}

	close(hook.release)
	<-first
	<-second
}

func TestRetryAfterFloorWithoutSamples(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if got := s.retryAfterSeconds("cyclic/all"); got != 1 {
		t.Errorf("retryAfterSeconds with empty ring = %d, want the 1s floor", got)
	}
	s.classes.record("cyclic/all", 10*time.Millisecond, explore.Stats{}, nil)
	if got := s.retryAfterSeconds("cyclic/all"); got != 1 {
		t.Errorf("retryAfterSeconds with 10ms p90 = %d, want the 1s floor", got)
	}
}

func TestStoreWarmLoadServesHits(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, Store: StoreConfig{Dir: dir}}

	s1, ts1 := newTestServer(t, cfg)
	resp, first := postJSON(t, ts1.URL, AnalyzeRequest{Network: netA})
	if resp.StatusCode != http.StatusOK || first.Cached {
		t.Fatalf("first analyze = %d cached=%v, want a 200 miss", resp.StatusCode, first.Cached)
	}
	if st := getStats(t, ts1.URL); st.Store == nil || st.Store.State != StoreOK || st.Store.Records != 1 {
		t.Fatalf("store stats after miss = %+v, want ok with 1 record", st.Store)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A fresh process over the same directory serves the verdict as a
	// cache hit without re-running the analysis, byte-identical.
	_, ts2 := newTestServer(t, cfg)
	st := getStats(t, ts2.URL)
	if st.Store == nil || st.Store.Replayed != 1 || st.CacheEntries != 1 {
		t.Fatalf("warm boot stats = cache %d, store %+v; want 1 entry replayed", st.CacheEntries, st.Store)
	}
	resp, second := postJSON(t, ts2.URL, AnalyzeRequest{Network: netA})
	if resp.StatusCode != http.StatusOK || !second.Cached {
		t.Fatalf("post-restart analyze = %d cached=%v, want a 200 hit", resp.StatusCode, second.Cached)
	}
	a, err := verdictjson.MarshalRecord(first.Record)
	if err != nil {
		t.Fatal(err)
	}
	b, err := verdictjson.MarshalRecord(second.Record)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("restart changed the record:\nbefore: %s\nafter:  %s", a, b)
	}
	if st := getStats(t, ts2.URL); st.Misses != 0 || st.Hits != 1 {
		t.Errorf("post-restart counters = hits %d misses %d, want 1/0", st.Hits, st.Misses)
	}
}

func TestStoreDegradedModeAndReopen(t *testing.T) {
	var failing atomic.Bool
	errDisk := errors.New("injected disk failure")
	cfg := Config{
		Workers: 1,
		Store: StoreConfig{
			Dir: t.TempDir(),
			Options: store.Options{
				Fault: func(op store.Op, seq int) error {
					// Gate on writes only: reopen's directory scan stays
					// readable, which matches a full-but-mounted volume.
					if failing.Load() && op == store.OpWrite {
						return errDisk
					}
					return nil
				},
			},
			// The floor keeps the probe from firing while the disk is still
			// failing (the whole failure script runs in well under 200ms),
			// so exactly one quarantine and one reopen happen.
			FailThreshold: 2,
			ReopenMin:     200 * time.Millisecond,
			ReopenMax:     400 * time.Millisecond,
		},
	}
	_, ts := newTestServer(t, cfg)

	// Healthy write-through first.
	if resp, _ := postJSON(t, ts.URL, AnalyzeRequest{Network: netN(0)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy analyze = %d", resp.StatusCode)
	}

	// Kill the disk. Every analysis must still answer 200 while the
	// failures accumulate past the threshold.
	failing.Store(true)
	for i := 1; i <= 3; i++ {
		resp, ar := postJSON(t, ts.URL, AnalyzeRequest{Network: netN(i)})
		if resp.StatusCode != http.StatusOK || ar.Record.Status != "ok" {
			t.Fatalf("analyze %d during disk failure = %d status %q, want 200 ok", i, resp.StatusCode, ar.Record.Status)
		}
	}
	st := waitStats(t, ts.URL, func(st Stats) bool {
		return st.Store != nil && st.Store.State == StoreDegraded
	})
	if st.Store.Quarantines != 1 || st.Store.IOErrors < 2 {
		t.Errorf("degraded stats = %+v, want 1 quarantine after ≥2 write errors", st.Store)
	}

	// Heal the disk; continued traffic drives the backoff probe and the
	// store comes back without a restart.
	failing.Store(false)
	deadline := time.Now().Add(10 * time.Second) //fsplint:ignore detrand test poll deadline
	for i := 10; ; i++ {
		if resp, _ := postJSON(t, ts.URL, AnalyzeRequest{Network: netN(i)}); resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze during recovery = %d", resp.StatusCode)
		}
		if st := getStats(t, ts.URL); st.Store != nil && st.Store.State == StoreOK {
			if st.Store.Reopens != 1 {
				t.Errorf("reopens = %d, want 1", st.Store.Reopens)
			}
			break
		}
		if time.Now().After(deadline) { //fsplint:ignore detrand test poll deadline
			t.Fatal("store never recovered after the disk healed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestStoreEvictionReadThrough(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, CacheEntries: 1, Store: StoreConfig{Dir: dir}})
	defer ts.Close()
	defer s.Close()

	if resp, _ := postJSON(t, ts.URL, AnalyzeRequest{Network: netA}); resp.StatusCode != http.StatusOK {
		t.Fatal("first analyze failed")
	}
	// netB's insertion evicts netA from the 1-entry LRU; eviction is
	// memory-only, so both records stay on disk.
	if resp, _ := postJSON(t, ts.URL, AnalyzeRequest{Network: netB}); resp.StatusCode != http.StatusOK {
		t.Fatal("second analyze failed")
	}
	st := getStats(t, ts.URL)
	if st.Evictions != 1 || st.Store == nil || st.Store.Records != 2 {
		t.Fatalf("stats = evictions %d store %+v, want 1 eviction and 2 on-disk records", st.Evictions, st.Store)
	}

	// Re-requesting netA must be answered by the store read-through — a
	// hit, not a recomputation.
	resp, body := postJSON(t, ts.URL, AnalyzeRequest{Network: netA})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-request of evicted network: status %d", resp.StatusCode)
	}
	if !body.Cached {
		t.Error("re-request of evicted network: cached = false, want read-through hit")
	}
	st = getStats(t, ts.URL)
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (read-through must not recompute)", st.Misses)
	}
	if st.DiskHits != 1 || st.Hits != 1 {
		t.Errorf("hits = %d diskHits = %d, want 1 and 1", st.Hits, st.DiskHits)
	}

	// The promotion re-entered netA into the 1-entry LRU, evicting netB;
	// the disk still holds both.
	if st.Evictions != 2 || st.Store.Records != 2 {
		t.Errorf("after promotion: evictions %d store records %d, want 2 and 2", st.Evictions, st.Store.Records)
	}
}

func TestStatuszStoreDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	st := getStats(t, ts.URL)
	if st.Store == nil || st.Store.State != StoreDisabled {
		t.Fatalf("store stats without -cache-dir = %+v, want state %q", st.Store, StoreDisabled)
	}
}

func TestLintEvictionsSurfaced(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheEntries: 1})
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/lint", "text/plain", bytes.NewReader([]byte(netN(i))))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if st := getStats(t, ts.URL); st.LintEvictions != 1 {
		t.Errorf("lintEvictions = %d, want 1", st.LintEvictions)
	}
}

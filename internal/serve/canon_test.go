package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fspnet/internal/fsplang"
)

// respell rewrites an fsplang source into another spelling of the same
// network: a comment and blank lines around every block, tabs and
// trailing comments, and each process's transitions in reverse order.
// The start statement pins the start state, so the network is unchanged
// and only the raw text — the memo key — differs.
func respell(t *testing.T, src string) string {
	t.Helper()
	n, err := fsplang.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	var trans []string
	for _, line := range strings.Split(fsplang.Format(n), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "process "):
			fmt.Fprintf(&sb, "# respelled\n\n%s\n", line)
		case strings.HasPrefix(line, "start "):
			fmt.Fprintf(&sb, "\t%s # pinned\n", line)
		case line == "}":
			for i := len(trans) - 1; i >= 0; i-- {
				fmt.Fprintf(&sb, "\t%s\n\n", trans[i])
			}
			trans = trans[:0]
			sb.WriteString("}  # end\n")
		default:
			trans = append(trans, line)
		}
	}
	return sb.String()
}

// TestCanonicalizerMatchesCanonicalize pins the memo to the pure
// function over every fixture, both ends of the process range, every
// mode and predicate spelling, and a respelling of each fixture: the
// miss and the hit must both return exactly Canonicalize's digest and
// resolved parameters, and a respelling must share its fixture's digest.
func TestCanonicalizerMatchesCanonicalize(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/*.fsp")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	c := NewCanonicalizer(1 << 12)
	var wantHits, wantMisses int64
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := string(raw)
		n, err := fsplang.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		respelled := respell(t, src)
		if respelled == src {
			t.Fatalf("%s: respelling changed nothing", path)
		}
		for _, process := range []int{0, n.Len() - 1} {
			for _, mode := range []string{"", "auto", "acyclic", "cyclic"} {
				for _, preds := range []string{"", PredicatesAll, PredicatesReach} {
					name := fmt.Sprintf("%s/p=%d/mode=%q/pred=%q", filepath.Base(path), process, mode, preds)
					want := AnalyzeRequest{Network: src, Process: process, Mode: mode, Predicates: preds}
					canonical, digest, err := Canonicalize(&want)
					if err != nil {
						t.Fatalf("%s: Canonicalize: %v", name, err)
					}
					check := func(what, network string, hit bool) {
						req := AnalyzeRequest{Network: network, Process: process, Mode: mode, Predicates: preds}
						cr, err := c.resolve(&req)
						if err != nil {
							t.Fatalf("%s %s: %v", name, what, err)
						}
						if hit {
							wantHits++
							if cr.n != nil || cr.text != "" {
								t.Errorf("%s %s: a memo hit parsed or formatted", name, what)
							}
						} else {
							wantMisses++
							if cr.text != canonical {
								t.Errorf("%s %s: miss kept canonical text %q, want %q", name, what, cr.text, canonical)
							}
						}
						got := Canonical{Digest: cr.Digest, LintDigest: cr.LintDigest, Mode: req.Mode, Predicates: req.Predicates}
						wantC := Canonical{Digest: digest, LintDigest: LintDigest(canonical), Mode: want.Mode, Predicates: want.Predicates}
						if got != wantC || cr.Mode != want.Mode || cr.Predicates != want.Predicates {
							t.Errorf("%s %s: got %+v (memo %q/%q), want %+v", name, what, got, cr.Mode, cr.Predicates, wantC)
						}
						if h, m := c.Counts(); h != wantHits || m != wantMisses {
							t.Fatalf("%s %s: counts %d/%d, want %d/%d", name, what, h, m, wantHits, wantMisses)
						}
					}
					check("miss", src, false)
					check("hit", src, true)
					check("respelled miss", respelled, false)
					check("respelled hit", respelled, true)
				}
			}
		}
	}
}

// TestCanonicalizerNeverMemoizesErrors: every invalid request fails with
// Canonicalize's own error on every call, and each call is a miss.
func TestCanonicalizerNeverMemoizesErrors(t *testing.T) {
	cases := []struct {
		name string
		req  AnalyzeRequest
	}{
		{"parse error", AnalyzeRequest{Network: "process P { broken !"}},
		{"process out of range", AnalyzeRequest{Network: netA, Process: 2}},
		{"bad mode", AnalyzeRequest{Network: netA, Mode: "sideways"}},
		{"bad predicates", AnalyzeRequest{Network: netA, Predicates: "none"}},
	}
	c := NewCanonicalizer(8)
	var calls int64
	for _, tc := range cases {
		want := tc.req
		_, _, wantErr := Canonicalize(&want)
		if wantErr == nil {
			t.Fatalf("%s: Canonicalize accepted it", tc.name)
		}
		for i := 0; i < 3; i++ {
			req := tc.req
			_, err := c.Resolve(&req)
			calls++
			if err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s call %d: error %v, want %v", tc.name, i, err, wantErr)
			}
			if hits, misses := c.Counts(); hits != 0 || misses != calls {
				t.Errorf("%s call %d: counts %d/%d, want 0/%d", tc.name, i, hits, misses, calls)
			}
		}
	}
}

// TestCanonicalizerConcurrentEviction resolves 16 keys from 8 goroutines
// through a 4-entry memo, so entries are evicted while others read them;
// every answer must still be Canonicalize's. Run it under -race.
func TestCanonicalizerConcurrentEviction(t *testing.T) {
	const keys, goroutines, rounds = 16, 8, 20
	reqs := make([]AnalyzeRequest, keys)
	want := make([]string, keys)
	for i := range reqs {
		reqs[i] = AnalyzeRequest{
			Network:    fmt.Sprintf("process P { start s0; s0 a%d s1 }\nprocess Q { start q0; q0 a%d q1 }", i/2, i/2),
			Predicates: []string{PredicatesAll, PredicatesReach}[i%2],
		}
		r := reqs[i]
		_, d, err := Canonicalize(&r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}
	c := NewCanonicalizer(4)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < keys; k++ {
					i := (k*(g+1) + r) % keys
					req := reqs[i]
					got, err := c.Resolve(&req)
					if err != nil {
						t.Error(err)
						return
					}
					if got.Digest != want[i] {
						t.Errorf("key %d: digest %s, want %s", i, got.Digest, want[i])
					}
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses := c.Counts()
	if hits+misses != goroutines*rounds*keys {
		t.Errorf("counts %d+%d, want %d resolutions", hits, misses, goroutines*rounds*keys)
	}
	if c.memo.len() > 4 || c.memo.evicted() == 0 {
		t.Errorf("memo holds %d entries after %d evictions; want ≤ 4 and some evictions", c.memo.len(), c.memo.evicted())
	}
}

// TestMemoHitThenCacheMisses drives the two paths where a memo hit must
// derive what it skipped: lint=true whose lint entry is missing, and a
// verdict miss (the first request's partial was never cached). Both
// answers must be byte-identical to a fresh server's.
func TestMemoHitThenCacheMisses(t *testing.T) {
	raw := func(url string, req AnalyzeRequest) (int, []byte) {
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
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}
	_, fresh := newTestServer(t, Config{Workers: 1})
	s, ts := newTestServer(t, Config{Workers: 1})

	// Memo filled without lint; the lint=true request hits the memo and
	// misses the lint cache.
	if code, _ := raw(ts.URL, AnalyzeRequest{Network: netLintClean}); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	code, got := raw(ts.URL, AnalyzeRequest{Network: netLintClean, Lint: true})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	raw(fresh.URL, AnalyzeRequest{Network: netLintClean})
	_, want := raw(fresh.URL, AnalyzeRequest{Network: netLintClean, Lint: true})
	if !bytes.Equal(got, want) {
		t.Errorf("lint on a memo hit:\n%s\nfresh server:\n%s", got, want)
	}

	// Memo filled by a partial, which is never cached; the next request
	// hits the memo and misses the verdict cache, so it parses and solves.
	if code, _ := raw(ts.URL, AnalyzeRequest{Network: netC, Timeout: "1ns"}); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	code, got = raw(ts.URL, AnalyzeRequest{Network: netC})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	_, want = raw(fresh.URL, AnalyzeRequest{Network: netC})
	if !bytes.Equal(got, want) {
		t.Errorf("solve on a memo hit:\n%s\nfresh server:\n%s", got, want)
	}

	st := s.Snapshot()
	if st.CanonHits != 2 || st.CanonMisses != 2 {
		t.Errorf("memo counts %d/%d, want 2 hits and 2 misses", st.CanonHits, st.CanonMisses)
	}
	if st.LintMisses != 1 || st.Misses != 2 {
		t.Errorf("lint misses %d, verdict misses %d; want 1 and 2", st.LintMisses, st.Misses)
	}
}

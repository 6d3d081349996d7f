package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fspnet/internal/serve"
)

// TestRoutedRepeatIsMemoHitInBothTiers sends one lint=true request twice
// through the router: the second is a memo hit at the edge and on the
// owning worker, and it answers the first answer's bytes with only the
// cached flag flipped.
func TestRoutedRepeatIsMemoHitInBothTiers(t *testing.T) {
	w0 := newTestWorker(t, serve.Config{Workers: 1})
	w1 := newTestWorker(t, serve.Config{Workers: 1})
	rt, ts := newTestRouter(t, []string{w0.url(), w1.url()}, nil)

	body, err := json.Marshal(serve.AnalyzeRequest{Network: netC, Lint: true})
	if err != nil {
		t.Fatal(err)
	}
	post := func() []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		return b
	}
	first, second := post(), post()
	if !bytes.Contains(first, []byte(`"cached": false`)) {
		t.Fatalf("first answer is not a miss:\n%s", first)
	}
	want := bytes.Replace(first, []byte(`"cached": false`), []byte(`"cached": true`), 1)
	if !bytes.Equal(second, want) {
		t.Errorf("second answer:\n%s\nwant the first with cached=true:\n%s", second, want)
	}

	st := rt.Snapshot()
	if st.CanonHits != 1 || st.CanonMisses != 1 {
		t.Errorf("router memo counts %d/%d, want 1 hit and 1 miss", st.CanonHits, st.CanonMisses)
	}
	var workerHits int64
	for _, ws := range st.Workers {
		if ws.Stats != nil {
			workerHits += ws.Stats.CanonHits
		}
	}
	if workerHits != 1 {
		t.Errorf("workers' memo hits = %d, want 1 on the owning worker", workerHits)
	}
}

// TestRouterReusesWorkerConnections: with many concurrent clients, the
// router's default client keeps a warm connection for every concurrent
// forward, so a second round of the same load dials no new connection.
func TestRouterReusesWorkerConnections(t *testing.T) {
	const clients, calls = 16, 20
	s := serve.New(serve.Config{Workers: 2})
	// The first forwards wait until one from every client has arrived, so
	// the first round reaches its peak of `clients` concurrent forwards.
	var arrived atomic.Int64
	gate := make(chan struct{})
	worker := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if arrived.Add(1) == clients {
			close(gate)
		}
		<-gate
		s.Handler().ServeHTTP(w, r)
	}))
	var opened atomic.Int64
	worker.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	worker.Start()
	t.Cleanup(func() { worker.Close(); s.Close() })
	// No probe fires during the test, so only forwards open connections.
	_, ts := newTestRouter(t, []string{worker.URL}, func(cfg *RouterConfig) {
		cfg.Cluster.Health.ProbeInterval = time.Hour
	})

	round := func() int64 {
		before := opened.Load()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client := &http.Client{Transport: &http.Transport{}}
				defer client.CloseIdleConnections()
				for i := 0; i < calls; i++ {
					resp, err := client.Post(ts.URL+"/v1/analyze", "text/plain", strings.NewReader(netA))
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("status %d", resp.StatusCode)
						return
					}
				}
			}()
		}
		wg.Wait()
		return opened.Load() - before
	}
	first := round()
	if first < clients {
		t.Errorf("first round opened %d worker connections, want at least %d", first, clients)
	}
	if second := round(); second != 0 {
		t.Errorf("second round opened %d worker connections, want 0 (first opened %d)", second, first)
	}
}

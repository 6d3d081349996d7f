package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fspnet/internal/serve"
)

// chainNet is an 8-process pipeline: process i hands a token to process
// i+1 over action a<i>.
func chainNet() string {
	var sb strings.Builder
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&sb, "process P%d {\n    start s0\n", i)
		st := 0
		if i > 0 {
			fmt.Fprintf(&sb, "    s%d a%d s%d\n", st, i-1, st+1)
			st++
		}
		if i < 7 {
			fmt.Fprintf(&sb, "    s%d a%d s%d\n", st, i, st+1)
		}
		sb.WriteString("}\n")
	}
	return sb.String()
}

// BenchmarkRoutedHit is one warm lint=true single through a router and
// two workers on loopback: every iteration is a verdict-cache and
// lint-cache hit, so allocs/op measures the routed hit path of both
// tiers (plus the in-process client's fixed share).
func BenchmarkRoutedHit(b *testing.B) {
	var urls []string
	for i := 0; i < 2; i++ {
		s := serve.New(serve.Config{Workers: 1})
		ts := httptest.NewServer(s.Handler())
		b.Cleanup(func() { ts.Close(); s.Close() })
		urls = append(urls, ts.URL)
	}
	rt, err := NewRouter(RouterConfig{Cluster: Config{Workers: urls}})
	if err != nil {
		b.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	b.Cleanup(func() { front.Close(); rt.Close() })

	body, err := json.Marshal(serve.AnalyzeRequest{Network: chainNet(), Lint: true})
	if err != nil {
		b.Fatal(err)
	}
	post := func() {
		resp, err := http.Post(front.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post() // the miss: solve, lint, fill every cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

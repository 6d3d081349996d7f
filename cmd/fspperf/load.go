package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fspnet/internal/serve"
	"fspnet/internal/verdictjson"
)

// maxConns bounds the load generator's connections to each server, and
// so the requests it has in flight.
const maxConns = 2

// newClient returns the load generator's HTTP client: at most maxConns
// connections per host, kept alive across requests.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// outcome classifies one analysis of a request.
type outcome uint8

const (
	outOK        outcome = iota // answered with the reference verdict
	outPartial                  // a governed run stopped early
	outRejected                 // 429 from fspd's admission control
	outShed                     // 429 from fsprouter's in-flight bound
	out5xx                      // any 5xx
	outTransport                // no HTTP answer
	outWrong                    // an answer that is not the reference verdict
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "partial", "rejected_429", "shed", "http_5xx", "transport", "wrong_verdict"}

// result is what one request came back with.
type result struct {
	outs    [numOutcomes]int // per item
	codes   []byte           // 3 bytes per item: the verdict returned, 'x' where none
	cached  bool             // a single request answered from the cache
	latency time.Duration    // from due time (open loop) or send (closed loop)
	lag     time.Duration    // due → dispatch, when a connection was idle at the due time
	idleDue bool
}

// ok reports whether every item came back correct.
func (r *result) ok() bool { return r.outs[outOK] == len(r.codes)/3 }

// verdictCode renders a record's predicates as a reference code.
func verdictCode(rec verdictjson.Record) [3]byte {
	code := [3]byte{'x', 'x', 'x'}
	for i, p := range []*bool{rec.Su, rec.Sa, rec.Sc} {
		if p != nil {
			code[i] = tf(*p)
		}
	}
	return code
}

// checker holds what a response is checked against.
type checker struct {
	c    *corpus
	refs refs
}

// classifyRecord judges one item's record.
func (k *checker) classifyRecord(it item, rec verdictjson.Record) (outcome, [3]byte) {
	got := verdictCode(rec)
	switch rec.Status {
	case verdictjson.StatusOK:
	case verdictjson.StatusPartial:
		return outPartial, got
	default:
		if strings.Contains(rec.Error, "queue is full") {
			return outRejected, got
		}
		return outWrong, got
	}
	n := k.c.net(it)
	ref := k.refs[it.list.name][3*it.idx : 3*it.idx+3]
	want := [3]byte{ref[0], ref[1], ref[2]}
	if it.reach {
		want[1] = 'x' // a reach record carries no S_a
	}
	if rec.Process != n.proc || got != want {
		return outWrong, got
	}
	return outOK, got
}

// send posts one request to base and classifies the answer.
func (k *checker) send(hc *http.Client, base string, req *request) result {
	res := result{codes: bytes.Repeat([]byte{'x'}, 3*len(req.items))}
	path := "/v1/analyze"
	if req.batch {
		path = "/v1/analyze/batch"
	}
	all := func(o outcome) result {
		res.outs[o] = len(req.items)
		return res
	}
	resp, err := hc.Post(base+path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return all(outTransport)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return all(outTransport)
	case resp.StatusCode == http.StatusTooManyRequests:
		if strings.Contains(string(body), "router is at capacity") {
			return all(outShed)
		}
		return all(outRejected)
	case resp.StatusCode >= 500:
		return all(out5xx)
	case resp.StatusCode != http.StatusOK:
		return all(outWrong)
	}
	var answers []serve.AnalyzeResponse
	if req.batch {
		var br serve.BatchResponse
		if json.Unmarshal(body, &br) != nil || len(br.Items) != len(req.items) {
			return all(outWrong)
		}
		answers = br.Items
	} else {
		var ar serve.AnalyzeResponse
		if json.Unmarshal(body, &ar) != nil {
			return all(outWrong)
		}
		answers = []serve.AnalyzeResponse{ar}
		res.cached = ar.Cached
	}
	for i, it := range req.items {
		o, code := k.classifyRecord(it, answers[i].Record)
		res.outs[o]++
		copy(res.codes[3*i:], code[:])
	}
	return res
}

// phase is the outcome of one timed phase.
type phase struct {
	results []result
	elapsed time.Duration
}

// counts sums the item outcomes.
func (p *phase) counts() (c [numOutcomes]int) {
	for i := range p.results {
		for o, n := range p.results[i].outs {
			c[o] += n
		}
	}
	return c
}

// closedLoop sends reqs from maxConns clients, each sending its next
// request when the previous one is answered.
func closedLoop(k *checker, hc *http.Client, base string, reqs []request) phase {
	p := phase{results: make([]result, len(reqs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				start := time.Now()
				p.results[i] = k.send(hc, base, &reqs[i])
				p.results[i].latency = time.Since(start)
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(t0)
	return p
}

// openLoop sends request i at its due time, slot/rate after the start,
// whether or not earlier requests have been answered. maxConns senders
// take requests in order; a request due while both are busy waits in
// the generator, and its latency still runs from its due time, so a
// stall charges every request it delays.
func openLoop(k *checker, hc *http.Client, base string, reqs []request, rate float64) phase {
	p := phase{results: make([]result, len(reqs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(time.Duration(float64(reqs[i].slot) / rate * float64(time.Second)))
				idle := false
				if d := time.Until(due); d > 0 {
					sleepPrecise(d)
					idle = true
				}
				dispatch := time.Now()
				r := k.send(hc, base, &reqs[i])
				r.latency = time.Since(due)
				r.idleDue = idle
				if idle {
					r.lag = dispatch.Sub(due)
				}
				p.results[i] = r
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// sleepPrecise blocks the calling thread in nanosleep(2). The runtime's
// own timers wake through epoll in whole milliseconds, which alone would
// put the generator's p99 lag near 1 ms; the kernel timer is good to
// tens of microseconds and, unlike spinning, costs the servers no CPU.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// quantile returns the q-quantile of sorted samples by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

// tailPerMille are the percentiles a tail latency may be reported at,
// in tenths of a percent, highest first.
var tailPerMille = []int{999, 995, 990, 980, 950, 900, 750, 500}

// tailPercentile returns the highest of tailPerMille, as a percentile,
// that has at least ten of n samples above it, or 0 when none does: a
// percentile with fewer samples beyond it is one sample's noise.
func tailPercentile(n int) float64 {
	for _, pm := range tailPerMille {
		if n*(1000-pm)/1000 >= 10 {
			return float64(pm) / 10
		}
	}
	return 0
}

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

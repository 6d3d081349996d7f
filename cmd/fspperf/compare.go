package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// deterministicCounts are per-layer metrics that are pure functions of
// the corpus: two runs of one corpus must report them exactly.
var deterministicCounts = map[string]bool{
	"explore.states":    true,
	"explore.moves":     true,
	"belief.ctx_states": true,
	"belief.positions":  true,
}

// benchBound is one end_to_end entry of BENCHMARK.json.
type benchBound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) (map[string]benchBound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []benchBound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]benchBound{}
	for _, e := range b.EndToEnd {
		out[e.Name] = e
	}
	return out, nil
}

func loadResults(path string) (*runResults, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runResults
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) does (the exclusive
// method), so spreads read the same here and there.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	q := [3]float64{}
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// comparison is the verdict on one workload's metric.
type comparison struct {
	workload, metric string
	a, b             [3]float64 // q1, median, q3
	regression       bool
	mismatch         bool
}

// compareSets compares runs of a parent (as) and a change (bs). It
// refuses — returns an error — when any run is invalid or the runs
// differ in host, mode, or a workload's corpus. A metric regresses when
// the change's median is worse than the parent's by more than the
// BENCHMARK.json bound and by more than the parent's interquartile
// spread; deterministic counts and verdict digests must match exactly.
func compareSets(as, bs []*runResults, bounds map[string]benchBound) ([]comparison, error) {
	if len(as) == 0 || len(bs) == 0 {
		return nil, fmt.Errorf("need at least one run on each side")
	}
	all := append(append([]*runResults(nil), as...), bs...)
	ref := all[0]
	for _, r := range all {
		if !r.Host.comparable(ref.Host) {
			return nil, fmt.Errorf("host headers differ: %+v vs %+v", ref.Host, r.Host)
		}
		if r.Trace != ref.Trace || r.Seed != ref.Seed || r.Seconds != ref.Seconds {
			return nil, fmt.Errorf("runs differ in -trace, -seed or -seconds")
		}
	}
	var out []comparison
	for _, w := range ref.Workloads {
		var va, vb []*wlResult
		for i, r := range all {
			wr := findWorkload(r, w.Name)
			if wr == nil {
				return nil, fmt.Errorf("workload %s missing from a run", w.Name)
			}
			if wr.Corpus != w.Corpus {
				return nil, fmt.Errorf("%s: corpus digests differ; the runs sent different traffic", w.Name)
			}
			if !wr.Valid {
				return nil, fmt.Errorf("%s: a run is marked invalid (generator lag)", w.Name)
			}
			if i < len(as) {
				va = append(va, wr)
			} else {
				vb = append(vb, wr)
			}
		}
		verdictsAgree := true
		for _, wr := range append(append([]*wlResult(nil), va...), vb...) {
			if wr.Verdicts != w.Verdicts {
				verdictsAgree = false
			}
		}
		if !verdictsAgree {
			out = append(out, comparison{workload: w.Name, metric: "verdicts", mismatch: true})
		}
		for _, m := range w.Metrics {
			c := comparison{workload: w.Name, metric: m.Name}
			xa, xb := values(va, m.Name), values(vb, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			c.a[0], c.a[1], c.a[2] = quartiles(xa)
			c.b[0], c.b[1], c.b[2] = quartiles(xb)
			if deterministicCounts[m.Name] {
				for _, x := range append(xa, xb...) {
					if x != xa[0] {
						c.mismatch = true
					}
				}
			}
			if bd, ok := bounds[m.Name]; ok {
				worse := c.b[1] - c.a[1]
				if bd.Better == "higher" {
					worse = -worse
				}
				c.regression = worse > bd.Bound*math.Abs(c.a[1]) && worse > c.a[2]-c.a[0]
			}
			out = append(out, c)
		}
	}
	return out, nil
}

func findWorkload(r *runResults, name string) *wlResult {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func values(ws []*wlResult, name string) []float64 {
	var out []float64
	for _, w := range ws {
		if m, ok := w.get(name); ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareMain is -compare: args are parent result files, "--", then
// change result files. It exits 0 when nothing regressed, 1 when
// something did or a deterministic count differs, 2 when it refuses.
func compareMain(args []string, benchPath string, stdout, stderr io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
			break
		}
	}
	if split < 0 {
		fmt.Fprintln(stderr, "fspperf: -compare wants A.json... -- B.json...")
		return 2
	}
	cs, err := compareFiles(args[:split], args[split+1:], benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "fspperf: compare:", err)
		return 2
	}
	return printComparison(cs, split, len(args)-split-1, stdout)
}

func compareFiles(aPaths, bPaths []string, benchPath string) ([]comparison, error) {
	load := func(paths []string) ([]*runResults, error) {
		var out []*runResults
		for _, p := range paths {
			r, err := loadResults(p)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	as, err := load(aPaths)
	if err != nil {
		return nil, err
	}
	bs, err := load(bPaths)
	if err != nil {
		return nil, err
	}
	bounds, err := loadBounds(benchPath)
	if err != nil {
		return nil, err
	}
	return compareSets(as, bs, bounds)
}

func printComparison(cs []comparison, na, nb int, stdout io.Writer) int {
	fmt.Fprintf(stdout, "%-12s %-30s %14s %27s %14s %27s %8s  %s\n",
		"workload", "metric", fmt.Sprintf("A median (%d)", na), "A [q1, q3]", fmt.Sprintf("B median (%d)", nb), "B [q1, q3]", "delta", "status")
	bad := 0
	for _, c := range cs {
		status := ""
		switch {
		case c.mismatch:
			status = "MISMATCH"
			bad++
		case c.regression:
			status = "REGRESSION"
			bad++
		}
		if c.metric == "verdicts" {
			fmt.Fprintf(stdout, "%-12s %-30s %s\n", c.workload, c.metric, status)
			continue
		}
		delta := ""
		if c.a[1] != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(c.b[1]-c.a[1])/math.Abs(c.a[1]))
		}
		fmt.Fprintf(stdout, "%-12s %-30s %14.6g [%12.6g, %12.6g] %14.6g [%12.6g, %12.6g] %8s  %s\n",
			c.workload, c.metric, c.a[1], c.a[0], c.a[2], c.b[1], c.b[0], c.b[2], delta, status)
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d flagged\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "nothing flagged")
	return 0
}

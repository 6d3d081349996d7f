// Command fspperf is fspnet's benchmark. It builds fspd and fsprouter
// from the tree it runs in, starts them as child processes on loopback,
// drives them with seeded traffic from one process (GOMAXPROCS 2, at
// most 2 connections), checks every verdict against a reference, and
// prints every metric as "workload metric value unit".
//
// Usage, from the repository root:
//
//	go run ./cmd/fspperf [-workload all|NAME[,NAME...]] [-seed 1] [-seconds 15]
//	                     [-trace 0|1] [-out results.json] [-work .fspperf]
//	go run ./cmd/fspperf -compare a1.json a2.json ... -- b1.json b2.json ...
//	go run ./cmd/fspperf -refs
//
// Each workload runs on fresh servers in three phases: set-up (exec to
// every /healthz answering 200, repeated and reported as a median),
// capacity (a closed loop of 2 clients sending a fixed number of
// requests), and latency (an open loop sending at a fixed rate, each
// request timed from its due time). -trace 1 replaces the timed phases
// with a traced replay that times each layer's public functions and
// writes trace-<workload>.json into the work directory.
//
// -compare diffs runs of two commits against the bounds in
// BENCHMARK.json; -refs rewrites the committed reference verdicts of
// seeds 1 and 2. The last line of standard output of a run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"fspnet/internal/serve"
	"fspnet/internal/store"
	"fspnet/internal/success"
	"fspnet/internal/verdictjson"
)

// genProcs is the load generator's GOMAXPROCS: the dev host has 2 cores.
const genProcs = 2

// setupReps is how many times a run starts its servers to time set-up;
// the last start serves the measured phases.
const setupReps = 9

// maxGenLagMs is the generator lag p99 beyond which a run is invalid:
// the open loop did not send on time.
const maxGenLagMs = 2.0

// infLatencyMs stands for the +∞ latency of a failed request wherever
// a percentile lands on one.
const infLatencyMs = 1e9

// endToEnd names the metrics BENCHMARK.json bounds, in print order; the
// summary line of an untraced run carries exactly these.
var endToEnd = []string{"setup_s", "throughput_rps", "latency_p50_ms", "latency_p90_ms", "slo_ok_ratio", "ok_ratio", "rss_mb"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fspperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "all", "workloads to run: all, or a comma-separated list of "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "corpus seed")
		seconds = fs.Float64("seconds", 15, "measured seconds per workload: a third capacity, two thirds latency")
		trace   = fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics instead")
		out     = fs.String("out", "", "write the results as JSON to this file")
		work    = fs.String("work", ".fspperf", "directory for binaries, stores and traces")
		compare = fs.Bool("compare", false, "compare result files A... -- B... against the bounds in BENCHMARK.json")
		refsOut = fs.Bool("refs", false, "rewrite cmd/fspperf/testdata/refs-seed{1,2}.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(genProcs)
	if *compare {
		return compareMain(fs.Args(), "BENCHMARK.json", stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "fspperf: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *refsOut {
		for _, s := range []int64{1, 2} {
			if err := writeRefs(filepath.Join("cmd", "fspperf", "testdata"), s, *seconds, genProcs); err != nil {
				fmt.Fprintln(stderr, "fspperf:", err)
				return 1
			}
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "fspperf: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "fspperf: -seconds must be positive")
		return 2
	}
	ws, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(stderr, "fspperf:", err)
		return 2
	}
	res, err := runAll(ws, runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work}, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "fspperf:", err)
		return 1
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(stderr, "fspperf:", err)
			return 1
		}
	}
	summary(res, stdout)
	for _, w := range res.Workloads {
		if w.Outcomes[outcomeNames[outWrong]] > 0 {
			fmt.Fprintf(stderr, "fspperf: %s: %d wrong verdicts\n", w.Name, w.Outcomes[outcomeNames[outWrong]])
			return 1
		}
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func selectWorkloads(names string) ([]*workload, error) {
	if names == "all" {
		return workloads, nil
	}
	var out []*workload
	for _, n := range strings.Split(names, ",") {
		w, err := workloadByName(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	work    string
}

// runResults is the -out file.
type runResults struct {
	Host      hostHeader  `json:"host"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Trace     bool        `json:"trace"`
	Workloads []*wlResult `json:"workloads"`
}

// metric is one measured value.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wlResult is one workload's numbers.
type wlResult struct {
	Name string `json:"name"`
	// Corpus is the corpus digest; Verdicts the SHA-256 over every
	// verdict the servers returned, in stream order.
	Corpus   string         `json:"corpus"`
	Verdicts string         `json:"verdicts,omitempty"`
	Valid    bool           `json:"valid"`
	Metrics  []metric       `json:"metrics"`
	Outcomes map[string]int `json:"outcomes"`
	// Attempted counts analyses sent (a batch of 8 counts 8); Failed the
	// ones not answered with the reference verdict.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

func (r *wlResult) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{name, v, unit})
}

func (r *wlResult) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// addPhase folds a phase's outcomes into the run's counts.
func (r *wlResult) addPhase(p *phase) {
	for o, n := range p.counts() {
		r.Outcomes[outcomeNames[o]] += n
		r.Attempted += n
		if outcome(o) != outOK {
			r.Failed += n
		}
	}
}

func runAll(ws []*workload, cfg runConfig, stdout, stderr io.Writer) (*runResults, error) {
	binDir, err := filepath.Abs(filepath.Join(cfg.work, "bin"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	if err := buildServers(binDir); err != nil {
		return nil, err
	}
	res := &runResults{Host: readHost(cfg.work), Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace}
	hc := newClient()
	defer hc.CloseIdleConnections()
	for _, w := range ws {
		r, err := runWorkload(w, cfg, binDir, hc, stderr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		for _, m := range r.Metrics {
			fmt.Fprintf(stdout, "%s %s %v %s\n", w.name, m.Name, m.Value, m.Unit)
		}
		for _, o := range outcomeNames {
			fmt.Fprintf(stdout, "%s outcome.%s %d count\n", w.name, o, r.Outcomes[o])
		}
		res.Workloads = append(res.Workloads, r)
	}
	return res, nil
}

// runWorkload runs one workload on fresh servers.
func runWorkload(w *workload, cfg runConfig, binDir string, hc *http.Client, stderr io.Writer) (*wlResult, error) {
	c := buildCorpus(w, cfg.seed, cfg.seconds)
	r := &wlResult{Name: w.name, Corpus: c.digest(), Valid: true, Outcomes: map[string]int{}}
	for _, o := range outcomeNames {
		r.Outcomes[o] = 0
	}
	needSa := map[string]bool{}
	for _, l := range c.lists() {
		needSa[l.name] = w.name != "reach-cold"
	}
	t0 := time.Now()
	refs, computed, err := resolveRefs(c, cfg.seed, needSa, genProcs)
	if err != nil {
		return nil, err
	}
	refS := time.Since(t0)
	k := &checker{c: c, refs: refs}

	spec := topoSpec{binDir: binDir, workers: w.workers, router: w.router || cfg.trace, cache: w.cache}
	var replay time.Duration
	if w.store {
		if n := len(c.stored) + len(c.nets[listStoreFreshA.name]) + len(c.nets[listStoreFreshB.name]); n > storeDiskCap {
			fmt.Fprintf(stderr, "fspperf: %s: %d verdicts exceed the store's cap of %d; every Put past it compacts\n", w.name, n, storeDiskCap)
		}
		dir, err := filepath.Abs(filepath.Join(cfg.work, "store-"+w.name))
		if err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if replay, err = preloadStore(filepath.Join(dir, "0"), c, refs); err != nil {
			return nil, err
		}
		spec.storeDir = dir
		defer os.RemoveAll(dir)
	}

	if cfg.trace {
		topo, _, err := startTopology(spec, hc)
		if err != nil {
			return nil, err
		}
		defer topo.stop()
		if err := runTrace(w, c, k, hc, topo, cfg.work, replay, r); err != nil {
			return nil, err
		}
		r.add("ref_s", refS.Seconds(), "s")
		return r, topo.stop()
	}

	var setups []float64
	var topo *topology
	for i := 0; i < setupReps; i++ {
		t, d, err := startTopology(spec, hc)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupReps-1 {
			if err := t.stop(); err != nil {
				return nil, err
			}
			continue
		}
		topo = t
	}
	defer topo.stop()
	entry := topo.entry()
	if len(c.warm) > 0 {
		if p := closedLoop(k, hc, entry, c.warm); p.counts()[outOK] != len(c.warm) {
			return nil, fmt.Errorf("warm-up failed: %v", p.counts())
		}
	}
	rs := startRSSSampler(topo)
	capPhase := closedLoop(k, hc, entry, c.b)
	latPhase := openLoop(k, hc, entry, c.a, w.rate)
	rssMed := rs.finish()
	peak, err := topo.peakRSS()
	if err != nil {
		return nil, err
	}
	if err := topo.stop(); err != nil {
		return nil, err
	}

	r.addPhase(&capPhase)
	r.addPhase(&latPhase)
	r.Verdicts = verdictDigest(&capPhase, &latPhase)
	sort.Float64s(setups)
	lat, withinSLO := latencies(&latPhase, w.sloMs)
	failRatio := float64(r.Failed) / float64(r.Attempted)
	lag := genLagP99(&latPhase)
	r.add("setup_s", quantile(setups, 0.5), "s")
	r.add("throughput_rps", float64(capPhase.counts()[outOK])/capPhase.elapsed.Seconds(), "ops/s")
	r.add("latency_p50_ms", quantile(lat, 0.5), "ms")
	r.add("latency_p90_ms", quantile(lat, 0.90), "ms")
	r.add("slo_ok_ratio", float64(withinSLO)/float64(len(lat)), "ratio")
	r.add("ok_ratio", 1-failRatio, "ratio")
	r.add("rss_mb", rssMed, "MiB")
	r.add("latency_p99_ms", quantile(lat, 0.99), "ms")
	r.add("peak_rss_mb", peak, "MiB")
	r.add("fail_ratio", failRatio, "ratio")
	r.add("gen_lag_p99_ms", lag, "ms")
	r.add("ref_s", refS.Seconds(), "s")
	r.add("ref_computed", float64(computed), "count")
	if lag > maxGenLagMs {
		r.Valid = false
		fmt.Fprintf(stderr, "fspperf: %s: generator lag p99 %.3f ms > %.0f ms; run is invalid\n", w.name, lag, maxGenLagMs)
	}
	if tailPercentile(len(lat)) < 99 {
		fmt.Fprintf(stderr, "fspperf: %s: %d latency samples leave fewer than 10 above p99\n", w.name, len(lat))
	}
	return r, nil
}

// latencies returns the open loop's latencies in ms, sorted, a failed
// request counting as +∞, and how many requests were answered correctly
// within sloMs.
func latencies(p *phase, sloMs float64) ([]float64, int) {
	out := make([]float64, len(p.results))
	within := 0
	for i := range p.results {
		r := &p.results[i]
		if !r.ok() {
			out[i] = infLatencyMs
			continue
		}
		out[i] = ms(r.latency)
		if out[i] <= sloMs {
			within++
		}
	}
	sort.Float64s(out)
	return out, within
}

// genLagP99 is the p99 delay from due time to dispatch over requests
// whose sender was idle when they fell due.
func genLagP99(p *phase) float64 {
	var lags []time.Duration
	for i := range p.results {
		if p.results[i].idleDue {
			lags = append(lags, p.results[i].lag)
		}
	}
	if len(lags) == 0 {
		return 0
	}
	return quantile(sortedMs(lags), 0.99)
}

// verdictDigest hashes every verdict the servers returned, in stream
// order: two runs of one corpus match exactly when every answer did.
func verdictDigest(phases ...*phase) string {
	h := sha256.New()
	for _, p := range phases {
		for i := range p.results {
			h.Write(p.results[i].codes)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// preloadStore writes the stored set's reference verdicts into a fresh
// store at dir through the store's own API, keyed by the digests fspd
// computes for the requests, and returns how long reopening it takes:
// the replay fspd repeats at every start.
func preloadStore(dir string, c *corpus, refs refs) (time.Duration, error) {
	st, err := store.Open(dir, store.Options{MaxRecords: storeDiskCap, NoSync: true})
	if err != nil {
		return 0, err
	}
	for _, it := range c.stored {
		req := analyzeRequest(c, it)
		_, digest, err := serve.Canonicalize(&req)
		if err != nil {
			st.Close()
			return 0, err
		}
		code := refs[it.list.name][3*it.idx:]
		v := success.Verdict{Su: code[0] == 't', Sa: code[1] == 't', Sc: code[2] == 't'}
		if err := st.Put(digest, verdictjson.OK(c.net(it).proc, v)); err != nil {
			st.Close()
			return 0, err
		}
	}
	if err := st.Close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	st, err = store.Open(dir, store.Options{MaxRecords: storeDiskCap})
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	if n := st.ReadStats().Replayed; n != len(c.stored) {
		st.Close()
		return 0, fmt.Errorf("preloaded store replays %d records, want %d", n, len(c.stored))
	}
	return d, st.Close()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// summary prints the last line of a run: correctness, counts, and the
// metrics BENCHMARK.json names — the end-to-end ones, or with -trace 1
// the per-layer ones. A run of several workloads prefixes each name
// with its workload.
func summary(res *runResults, stdout io.Writer) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	isEndToEnd := map[string]bool{}
	for _, n := range endToEnd {
		isEndToEnd[n] = true
	}
	for _, w := range res.Workloads {
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		if w.Outcomes[outcomeNames[outWrong]] > 0 {
			line.Correct = false
		}
		for _, m := range w.Metrics {
			keep := isEndToEnd[m.Name]
			if res.Trace {
				keep = m.Name != "ref_s" // every per-layer metric
			}
			if !keep {
				continue
			}
			name := m.Name
			if len(res.Workloads) > 1 {
				name = w.Name + "." + name
			}
			v := m.Value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = infLatencyMs
			}
			line.Metrics[name] = value{v, m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Fprintln(stdout, string(data))
}

package explore_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fspnet/internal/explore"
	"fspnet/internal/fsplang"
	"fspnet/internal/fsptest"
	"fspnet/internal/network"
)

var update = flag.Bool("update", false, "rewrite the explore golden file")

// goldenMaxStates caps every run so the large philosophers fixtures stop
// at the head of a deterministic BFS level instead of walking their
// whole joint space.
const goldenMaxStates = 1 << 12

// goldenProcs picks the distinguished processes of a fixture: all of a
// small network, and the first, middle and last of a large one (the
// philosophers rings, whose philosophers and forks are each one orbit).
func goldenProcs(m int) []int {
	if m <= 4 {
		ps := make([]int, m)
		for i := range ps {
			ps[i] = i
		}
		return ps
	}
	return []int{0, m / 2, m - 1}
}

// TestGoldenFixtureStats pins the verdicts and every deterministic
// explore.Stats counter for the goldenProcs of every testdata/*.fsp
// fixture and a few generated tree networks, under both semantics, in
// two engine configurations: the default (probes first) and the
// probe-free exhaustive oracle, both under the same state cap. Any
// change to how the BFS interns, orders, or counts states shows up as a
// golden diff.
func TestGoldenFixtureStats(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.fsp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no fixtures found")
	}
	sort.Strings(paths)
	configs := []struct {
		name string
		opts explore.Options
	}{
		{"default", explore.Options{MaxStates: goldenMaxStates}},
		{"oracle", explore.Options{MaxStates: goldenMaxStates, Tune: explore.Tuning{NoProbe: true}}},
	}
	type fixture struct {
		name string
		n    *network.Network
	}
	var fixtures []fixture
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n, err := fsplang.ParseString(string(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		fixtures = append(fixtures, fixture{filepath.Base(path), n})
	}
	// Generated tree networks large enough for multi-level BFS runs with
	// real interning traffic, acyclic and cyclic.
	for seed := int64(0); seed < 6; seed++ {
		for _, cyc := range []bool{false, true} {
			r := rand.New(rand.NewSource(900 + seed))
			n := fsptest.TreeNetwork(r, fsptest.NetConfig{
				Procs: 6 + int(seed%3), ActionsPerEdge: 2, MaxStates: 4, TauProb: 0.2, Cyclic: cyc})
			fixtures = append(fixtures, fixture{fmt.Sprintf("tree%d-cyclic=%v", seed, cyc), n})
		}
	}
	var b strings.Builder
	for _, fx := range fixtures {
		name, n := fx.name, fx.n
		for _, i := range goldenProcs(n.Len()) {
			for _, c := range configs {
				res, err := explore.AnalyzeAcyclic(n, i, c.opts)
				fmt.Fprintf(&b, "%s p%d acyclic %s: %s\n", name, i, c.name, renderResult(res, err))
				res, err = explore.AnalyzeCyclic(n, i, c.opts)
				fmt.Fprintf(&b, "%s p%d cyclic %s: %s\n", name, i, c.name, renderResult(res, err))
			}
		}
	}
	got := b.String()
	goldenPath := filepath.Join("testdata", "fixture_stats.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for k := 0; k < len(gl) && k < len(wl); k++ {
			if gl[k] != wl[k] {
				t.Fatalf("fixture stats changed at line %d (run with -update if intended)\ngot:  %s\nwant: %s", k+1, gl[k], wl[k])
			}
		}
		t.Fatalf("fixture stats changed: %d lines, want %d", len(gl), len(wl))
	}
}

// renderResult is the golden rendering of one engine run: the verdict or
// the error text (deterministic: budget and shape errors name level
// counts and process names only), then the counters.
func renderResult(res explore.Result, err error) string {
	verdict := fmt.Sprintf("Su=%v Sc=%v", res.Su, res.Sc)
	if err != nil {
		verdict = "err=" + err.Error()
	}
	st := res.Stats
	return fmt.Sprintf("%s | states=%d depth=%d moves=%d probe=%d",
		verdict, st.States, st.Depth, st.Moves, st.ProbeStates)
}

package belief_test

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fspnet/internal/fsplang"
	"fspnet/internal/fsptest"
	"fspnet/internal/game"
	"fspnet/internal/game/belief"
	"fspnet/internal/network"
)

var update = flag.Bool("update", false, "rewrite the belief golden file")

// goldenBudget caps every run, so the oracle configuration stops the
// philosophers rings from 12 up at a context BFS level instead of
// walking their whole context. It sits well clear of both sides of that
// cut: the philosophers10 contexts hold at most 78 733 states, the
// philosophers12 ones at least 531 441.
const goldenBudget = 1 << 17

// goldenProcs picks the distinguished processes of a fixture: all of a
// small network, and the first, middle and last of a large one.
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

// TestGoldenBeliefStats pins the S_a verdicts and the deterministic
// belief.Stats counters for the goldenProcs of every testdata/*.fsp
// fixture and 20 generated tree networks, under both semantics, in the
// default tuning and the unpruned, unreduced, probe-free oracle. The
// verdict, Beliefs, Positions, ProbeStates and GroupOrder must match
// the golden file exactly; CtxStates may only shrink, since which
// context states the walk builds beyond those a belief can hold is an
// implementation choice the game never observes.
func TestGoldenBeliefStats(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "..", "testdata", "*.fsp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no fixtures found")
	}
	sort.Strings(paths)
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
	// Odd seeds give the non-first processes τ-moves, which the game
	// rejects in P; even seeds keep every process eligible as P.
	for seed := int64(0); seed < 10; seed++ {
		for _, cyc := range []bool{false, true} {
			r := rand.New(rand.NewSource(700 + seed))
			n := fsptest.TreeNetwork(r, fsptest.NetConfig{
				Procs: 4 + int(seed%4), ActionsPerEdge: 2, MaxStates: 4, TauProb: 0.2 * float64(seed%2), Cyclic: cyc})
			fixtures = append(fixtures, fixture{fmt.Sprintf("tree%d-cyclic=%v", seed, cyc), n})
		}
	}
	configs := []struct {
		name string
		tune belief.Tuning
	}{
		{"default", belief.Tuning{}},
		{"oracle", oracle},
	}
	o := game.Options{Budget: goldenBudget}
	var b strings.Builder
	for _, fx := range fixtures {
		for _, i := range goldenProcs(fx.n.Len()) {
			for _, c := range configs {
				win, st, err := belief.SolveAcyclicTuned(fx.n, i, o, c.tune)
				fmt.Fprintf(&b, "%s p%d acyclic %s: %s\n", fx.name, i, c.name, renderBelief(win, st, err))
				win, st, err = belief.SolveCyclicTuned(fx.n, i, o, c.tune)
				fmt.Fprintf(&b, "%s p%d cyclic %s: %s\n", fx.name, i, c.name, renderBelief(win, st, err))
			}
		}
	}
	got := b.String()
	goldenPath := filepath.Join("testdata", "belief_stats.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	gl := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	wl := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("belief stats: %d lines, golden has %d (run with -update if intended)", len(gl), len(wl))
	}
	for k := range gl {
		g, w := parseGolden(t, gl[k]), parseGolden(t, wl[k])
		gctx, wctx := g.ctx, w.ctx
		g.ctx, w.ctx = 0, 0
		if g != w || gctx > wctx {
			t.Errorf("line %d changed (run with -update if intended)\ngot:  %s\nwant: %s", k+1, gl[k], wl[k])
		}
	}
}

// renderBelief is the golden rendering of one engine run: the verdict
// or the error, then the counters. A budget stop renders as its class
// alone: where the budget trips depends on how many context states the
// walk builds, which the golden lets shrink.
func renderBelief(win bool, st belief.Stats, err error) string {
	switch {
	case errors.Is(err, game.ErrBudget):
		return "err=budget"
	case err != nil:
		return "err=" + err.Error()
	}
	return fmt.Sprintf("Sa=%v | beliefs=%d positions=%d probe=%d group=%d ctx=%d",
		win, st.Beliefs, st.Positions, st.ProbeStates, st.GroupOrder, st.CtxStates)
}

// goldenRow is one parsed golden line.
type goldenRow struct {
	key, verdict                          string
	beliefs, positions, probe, group, ctx int
}

func parseGolden(t *testing.T, line string) goldenRow {
	t.Helper()
	key, rest, ok := strings.Cut(line, ": ")
	if !ok {
		t.Fatalf("malformed golden line %q", line)
	}
	r := goldenRow{key: key}
	var counts string
	r.verdict, counts, ok = strings.Cut(rest, " | ")
	if !ok {
		return r
	}
	if _, err := fmt.Sscanf(counts, "beliefs=%d positions=%d probe=%d group=%d ctx=%d",
		&r.beliefs, &r.positions, &r.probe, &r.group, &r.ctx); err != nil {
		t.Fatalf("malformed golden line %q: %v", line, err)
	}
	return r
}

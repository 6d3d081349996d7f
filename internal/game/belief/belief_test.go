// Differential tests pinning the belief engine to the legacy
// compose-then-recurse S_a solver: on every network both must return the
// same verdict (or the same error class). The legacy path composes the
// context with ‖ (ComposeAllCyclic under the Section 4 semantics) and
// plays game.Solve*Opts against the product; the belief engine never
// composes.
package belief_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"fspnet/internal/bench"
	"fspnet/internal/fsp"
	"fspnet/internal/fsptest"
	"fspnet/internal/game"
	"fspnet/internal/game/belief"
	"fspnet/internal/guard"
	"fspnet/internal/network"
	"fspnet/internal/reduce"
	"fspnet/internal/sat"
)

// legacySa is the oracle: compose the context of process i, then run the
// legacy game solver on the product.
func legacySa(n *network.Network, i int, cyclic bool) (bool, error) {
	q, err := n.Context(i, cyclic)
	if err != nil {
		return false, err
	}
	if cyclic {
		return game.SolveCyclic(n.Process(i), q)
	}
	return game.SolveAcyclic(n.Process(i), q)
}

func beliefSa(n *network.Network, i int, cyclic bool, o game.Options) (bool, belief.Stats, error) {
	if cyclic {
		return belief.SolveCyclic(n, i, o)
	}
	return belief.SolveAcyclic(n, i, o)
}

// checkAgainstLegacy compares the two engines on one instance.
func checkAgainstLegacy(t *testing.T, n *network.Network, cyclic bool, tag string) {
	t.Helper()
	want, err := legacySa(n, 0, cyclic)
	if err != nil {
		t.Fatalf("%s: legacy: %v", tag, err)
	}
	got, st, err := beliefSa(n, 0, cyclic, game.Options{})
	if err != nil {
		t.Fatalf("%s: belief: %v", tag, err)
	}
	if got != want {
		t.Fatalf("%s: belief S_a=%v, legacy S_a=%v (stats %+v)", tag, got, want, st)
	}
}

// TestDifferentialTreeNetworks fuzzes small random tree networks under
// both semantics deterministically.
func TestDifferentialTreeNetworks(t *testing.T) {
	for _, cyclic := range []bool{false, true} {
		for seed := int64(0); seed < 60; seed++ {
			r := rand.New(rand.NewSource(1000 + seed))
			cfg := fsptest.NetConfig{
				Procs:          2 + r.Intn(4),
				ActionsPerEdge: 1 + r.Intn(2),
				MaxStates:      3 + r.Intn(3),
				TauProb:        0.2,
				Cyclic:         cyclic,
			}
			n := fsptest.TreeNetwork(r, cfg)
			checkAgainstLegacy(t, n, cyclic, fmt.Sprintf("seed %d cyclic=%v procs=%d", seed, cyclic, cfg.Procs))
		}
	}
}

// TestDifferentialQbfGadgets runs the Theorem 2 reduction fixtures: the
// belief engine must match both the legacy solver and the QBF value.
func TestDifferentialQbfGadgets(t *testing.T) {
	r := rand.New(rand.NewSource(507))
	for i := 0; i < 15; i++ {
		q := sat.RandomQBF(r, 1+r.Intn(3), 1+r.Intn(3))
		want, err := sat.SolveQBF(q)
		if err != nil {
			t.Fatal(err)
		}
		n, err := reduce.QbfGadget(q)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		got, _, err := belief.SolveAcyclic(n, 0, game.Options{})
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("iter %d: belief S_a=%v but QBF=%v for %s", i, got, want, q)
		}
		checkAgainstLegacy(t, n, false, fmt.Sprintf("gadget %d", i))
	}
}

// TestDifferentialPhilosophers pins the cyclic semantics on the canonical
// deadlock-prone ring, where the context both diverges silently and
// blocks.
func TestDifferentialPhilosophers(t *testing.T) {
	for _, m := range []int{2, 3} {
		n, err := bench.Philosophers(m)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstLegacy(t, n, true, fmt.Sprintf("philosophers %d", m))
		p, err := bench.PhilosophersPolite(m)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstLegacy(t, p, true, fmt.Sprintf("polite philosophers %d", m))
	}
}

// TestDeterministicStats reruns one instance and requires identical
// statistics — the engine's worklists are sequential and ordered. The
// probe is pinned off so the run exercises the enumeration passes (on
// the ring it would otherwise decide from a handful of raw vectors).
func TestDeterministicStats(t *testing.T) {
	n, err := bench.Philosophers(3)
	if err != nil {
		t.Fatal(err)
	}
	noProbe := belief.Tuning{NoProbe: true}
	_, st1, err := belief.SolveCyclicTuned(n, 0, game.Options{}, noProbe)
	if err != nil {
		t.Fatal(err)
	}
	_, st2, err := belief.SolveCyclicTuned(n, 0, game.Options{}, noProbe)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatalf("stats differ across runs: %+v vs %+v", st1, st2)
	}
	if st1.CtxStates == 0 || st1.Beliefs == 0 || st1.Positions == 0 {
		t.Fatalf("implausible stats: %+v", st1)
	}
}

// TestCtxWalkSkipsUnsyncedBranch builds a context whose start offers b,
// an action P owns but performs only after a — and a moves the context
// past its b-branch. No joint run reaches q2, so the context walk must
// not intern it: only q0 and q1 are built.
func TestCtxWalkSkipsUnsyncedBranch(t *testing.T) {
	bp := fsp.NewBuilder("P")
	p0, p1, p2 := bp.State("p0"), bp.State("p1"), bp.State("p2")
	bp.Add(p0, "a", p1)
	bp.Add(p1, "b", p2)
	bq := fsp.NewBuilder("Q")
	q0, q1, q2 := bq.State("q0"), bq.State("q1"), bq.State("q2")
	bq.Add(q0, "a", q1)
	bq.Add(q0, "b", q2)
	n, err := network.New(bp.MustBuild(), bq.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstLegacy(t, n, false, "unsynced branch")
	_, st, err := belief.SolveAcyclicTuned(n, 0, game.Options{}, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if st.CtxStates != 2 {
		t.Fatalf("CtxStates = %d, want 2 (q0, q1): the unsynchronizable b-branch was interned", st.CtxStates)
	}
}

// TestBudgetExhaustion forces the position budget and requires a
// well-formed partial verdict naming a belief-engine pass.
func TestBudgetExhaustion(t *testing.T) {
	n, err := bench.Philosophers(4)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = belief.SolveCyclicTuned(n, 0, game.Options{Budget: 8}, belief.Tuning{NoProbe: true})
	if !errors.Is(err, game.ErrBudget) {
		t.Fatalf("err = %v, want game.ErrBudget", err)
	}
	var le *guard.LimitErr
	if !errors.As(err, &le) {
		t.Fatalf("err %v is not a *guard.LimitErr", err)
	}
	switch le.Partial.Pass {
	case "ctx-bfs", "game":
		// Both passes consume the same budget; either may hit it first.
	default:
		t.Errorf("partial names pass %q, want ctx-bfs or game", le.Partial.Pass)
	}
	if le.Partial.States == 0 {
		t.Error("partial carries no progress measure")
	}
}

// TestTauPRejected requires the legacy sentinel for a τ-ful distinguished
// process.
func TestTauPRejected(t *testing.T) {
	b := fsp.NewBuilder("P")
	s0, s1 := b.State("a"), b.State("b")
	b.Add(s0, fsp.Tau, s1)
	b.Add(s0, "x", s1)
	p := b.MustBuild()
	qb := fsp.NewBuilder("Q")
	q0, q1 := qb.State("a"), qb.State("b")
	qb.Add(q0, "x", q1)
	n, err := network.New(p, qb.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := belief.SolveAcyclic(n, 0, game.Options{}); !errors.Is(err, game.ErrTauMoves) {
		t.Fatalf("err = %v, want game.ErrTauMoves", err)
	}
	if _, _, err := belief.SolveCyclic(n, 0, game.Options{}); !errors.Is(err, game.ErrTauMoves) {
		t.Fatalf("err = %v, want game.ErrTauMoves", err)
	}
}

package explore_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"fspnet/internal/explore"
	"fspnet/internal/fsp"
	"fspnet/internal/fsptest"
	"fspnet/internal/network"
	"fspnet/internal/success"
)

// oracleAcyclic is the compose-then-explore reference: materialize the
// context with ‖ and run the pairwise Section 3 procedures.
func oracleAcyclic(n *network.Network, i int) (su, sc bool, err error) {
	ctx, err := n.Context(i, false)
	if err != nil {
		return false, false, err
	}
	p := n.Process(i)
	su, err = success.UnavoidableAcyclic(p, ctx)
	if err != nil {
		return false, false, err
	}
	sc, err = success.CollaborationAcyclic(p, ctx)
	return su, sc, err
}

func oracleCyclic(n *network.Network, i int) (su, sc bool, err error) {
	ctx, err := n.Context(i, true)
	if err != nil {
		return false, false, err
	}
	p := n.Process(i)
	su, err = success.UnavoidableCyclic(p, ctx)
	if err != nil {
		return false, false, err
	}
	sc, err = success.CollaborationCyclic(p, ctx)
	return su, sc, err
}

// TestAcyclicAgreesWithOracle checks the engine against the
// compose-then-explore oracle on a seeded corpus of random acyclic tree
// networks, every process of each network.
func TestAcyclicAgreesWithOracle(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := fsptest.TreeNetwork(r, fsptest.NetConfig{
			Procs:          1 + int(seed%6),
			ActionsPerEdge: 1 + int(seed%2),
			MaxStates:      3 + int(seed%3),
			TauProb:        0.25,
		})
		for i := 0; i < n.Len(); i++ {
			wantSu, wantSc, wantErr := oracleAcyclic(n, i)
			res, err := explore.AnalyzeAcyclic(n, i, explore.Options{})
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("seed %d proc %d: engine err %v, oracle err %v", seed, i, err, wantErr)
			}
			if err != nil {
				continue
			}
			if res.Su != wantSu || res.Sc != wantSc {
				t.Errorf("seed %d proc %d: engine (Su=%v, Sc=%v), oracle (Su=%v, Sc=%v)",
					seed, i, res.Su, res.Sc, wantSu, wantSc)
			}
		}
	}
}

// TestCyclicAgreesWithOracle is the cyclic-semantics twin. Processes
// other than P0 may carry τ-moves, so it also checks that the engine
// rejects exactly the inputs the oracle rejects (τ-ful distinguished
// process ⇒ ErrShape on both sides).
func TestCyclicAgreesWithOracle(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		n := fsptest.TreeNetwork(r, fsptest.NetConfig{
			Procs:          2 + int(seed%4),
			ActionsPerEdge: 1 + int(seed%2),
			MaxStates:      3 + int(seed%2),
			TauProb:        0.3,
			Cyclic:         true,
		})
		for i := 0; i < n.Len(); i++ {
			wantSu, wantSc, wantErr := oracleCyclic(n, i)
			res, err := explore.AnalyzeCyclic(n, i, explore.Options{})
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("seed %d proc %d: engine err %v, oracle err %v", seed, i, err, wantErr)
			}
			if err != nil {
				if !errors.Is(err, explore.ErrShape) || !errors.Is(wantErr, success.ErrShape) {
					t.Fatalf("seed %d proc %d: unexpected error kinds: engine %v, oracle %v",
						seed, i, err, wantErr)
				}
				continue
			}
			if res.Su != wantSu || res.Sc != wantSc {
				t.Errorf("seed %d proc %d: engine (Su=%v, Sc=%v), oracle (Su=%v, Sc=%v)",
					seed, i, res.Su, res.Sc, wantSu, wantSc)
			}
		}
	}
}

// mustNet builds a network from processes or fails the test.
func mustNet(t *testing.T, procs ...*fsp.FSP) *network.Network {
	t.Helper()
	n, err := network.New(procs...)
	if err != nil {
		t.Fatalf("network.New: %v", err)
	}
	return n
}

// divergentContextNet is a 3-process network whose context for P silently
// diverges: C1 and C2 handshake on x forever while P can always handshake
// a with C1. The folded cyclic context gets a ⊥ leaf, so S_u must fail —
// but only through the divergence rule, since no joint vector is ever
// moveless.
func divergentContextNet(t *testing.T) *network.Network {
	t.Helper()
	pb := fsp.NewBuilder("P")
	p0 := pb.State("p0")
	pb.SetStart(p0)
	pb.Add(p0, "a", p0)

	cb := fsp.NewBuilder("C1")
	c0 := cb.State("c0")
	cb.SetStart(c0)
	cb.Add(c0, "a", c0)
	cb.Add(c0, "x", c0)

	db := fsp.NewBuilder("C2")
	d0 := db.State("d0")
	db.SetStart(d0)
	db.Add(d0, "x", d0)

	return mustNet(t, pb.MustBuild(), cb.MustBuild(), db.MustBuild())
}

// TestCyclicDivergenceRule pins the τ-loop rule of Section 4: a context
// that can silently diverge defeats unavoidable success even though no
// reachable joint vector is blocked outright, while collaboration still
// succeeds by pumping the a-handshake.
func TestCyclicDivergenceRule(t *testing.T) {
	n := divergentContextNet(t)
	wantSu, wantSc, err := oracleCyclic(n, 0)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if wantSu || !wantSc {
		t.Fatalf("oracle sanity: got (Su=%v, Sc=%v), want (false, true)", wantSu, wantSc)
	}
	res, err := explore.AnalyzeCyclic(n, 0, explore.Options{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if res.Su != wantSu || res.Sc != wantSc {
		t.Errorf("engine (Su=%v, Sc=%v), oracle (Su=%v, Sc=%v)", res.Su, res.Sc, wantSu, wantSc)
	}
}

// TestCyclicTwoProcessNoDivergenceLeaf pins the fold asymmetry: a
// two-process network's context is a single raw process — ComposeAllCyclic
// never composes, so no ⊥ leaf is added and a τ-loop in the context must
// NOT count as divergence. The engine has to mirror that.
func TestCyclicTwoProcessNoDivergenceLeaf(t *testing.T) {
	pb := fsp.NewBuilder("P")
	p0 := pb.State("p0")
	pb.SetStart(p0)
	pb.Add(p0, "a", p0)

	cb := fsp.NewBuilder("C")
	c0 := cb.State("c0")
	cb.SetStart(c0)
	cb.Add(c0, "a", c0)
	cb.AddTau(c0, c0)

	n := mustNet(t, pb.MustBuild(), cb.MustBuild())
	wantSu, wantSc, err := oracleCyclic(n, 0)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if !wantSu || !wantSc {
		t.Fatalf("oracle sanity: got (Su=%v, Sc=%v), want (true, true)", wantSu, wantSc)
	}
	res, err := explore.AnalyzeCyclic(n, 0, explore.Options{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if res.Su != wantSu || res.Sc != wantSc {
		t.Errorf("engine (Su=%v, Sc=%v), oracle (Su=%v, Sc=%v)", res.Su, res.Sc, wantSu, wantSc)
	}
}

// TestAcyclicShapeError checks that a cyclic member in the acyclic
// analysis is rejected with ErrShape, both when it is the distinguished
// process and when it hides in the context.
func TestAcyclicShapeError(t *testing.T) {
	pb := fsp.NewBuilder("P")
	p0, p1 := pb.State("p0"), pb.State("p1")
	pb.SetStart(p0)
	pb.Add(p0, "a", p1)

	cb := fsp.NewBuilder("C")
	c0 := cb.State("c0")
	cb.SetStart(c0)
	cb.Add(c0, "a", c0)

	n := mustNet(t, pb.MustBuild(), cb.MustBuild())
	for i := 0; i < 2; i++ {
		if _, err := explore.AnalyzeAcyclic(n, i, explore.Options{}); !errors.Is(err, explore.ErrShape) {
			t.Errorf("AnalyzeAcyclic(%d): err = %v, want ErrShape", i, err)
		}
		if _, _, err := oracleAcyclic(n, i); !errors.Is(err, success.ErrShape) {
			t.Errorf("oracle(%d): err = %v, want success.ErrShape", i, err)
		}
	}
}

// TestSingleProcessNetwork covers the m = 1 degenerate case against the
// oracle's Q∅ context.
func TestSingleProcessNetwork(t *testing.T) {
	b := fsp.NewBuilder("P0")
	b.State("0")
	n := mustNet(t, b.MustBuild())
	wantSu, wantSc, err := oracleAcyclic(n, 0)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	res, err := explore.AnalyzeAcyclic(n, 0, explore.Options{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if res.Su != wantSu || res.Sc != wantSc {
		t.Errorf("engine (Su=%v, Sc=%v), oracle (Su=%v, Sc=%v)", res.Su, res.Sc, wantSu, wantSc)
	}
	cres, err := explore.AnalyzeCyclic(n, 0, explore.Options{})
	if err != nil {
		t.Fatalf("engine cyclic: %v", err)
	}
	cwantSu, cwantSc, err := oracleCyclic(n, 0)
	if err != nil {
		t.Fatalf("oracle cyclic: %v", err)
	}
	if cres.Su != cwantSu || cres.Sc != cwantSc {
		t.Errorf("cyclic engine (Su=%v, Sc=%v), oracle (Su=%v, Sc=%v)", cres.Su, cres.Sc, cwantSu, cwantSc)
	}
}

// TestBadIndex checks the network-package sentinel on out-of-range i.
func TestBadIndex(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := fsptest.TreeNetwork(r, fsptest.NetConfig{Procs: 3, ActionsPerEdge: 1, MaxStates: 3})
	for _, i := range []int{-1, n.Len()} {
		if _, err := explore.AnalyzeAcyclic(n, i, explore.Options{}); !errors.Is(err, network.ErrBadIndex) {
			t.Errorf("AnalyzeAcyclic(%d): err = %v, want ErrBadIndex", i, err)
		}
	}
}

// TestBudget checks that MaxStates cuts exploration off with ErrBudget
// and that the reported state count is deterministic.
func TestBudget(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := fsptest.TreeNetwork(r, fsptest.NetConfig{Procs: 5, ActionsPerEdge: 2, MaxStates: 5, TauProb: 0.2})
	_, err := explore.AnalyzeAcyclic(n, 0, explore.Options{MaxStates: 2})
	if !errors.Is(err, explore.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	msg := fmt.Sprint(err)
	for trial := 0; trial < 3; trial++ {
		_, err2 := explore.AnalyzeAcyclic(n, 0, explore.Options{MaxStates: 2})
		if fmt.Sprint(err2) != msg {
			t.Fatalf("budget error not deterministic: %q vs %q", err2, msg)
		}
	}
}

// TestStatsDeterministic locks Stats across repeated runs on a network
// with a multi-level BFS.
func TestStatsDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	n := fsptest.TreeNetwork(r, fsptest.NetConfig{Procs: 6, ActionsPerEdge: 2, MaxStates: 4, TauProb: 0.2})
	base, err := explore.AnalyzeAcyclic(n, 0, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.States == 0 || base.Stats.Depth == 0 {
		t.Fatalf("degenerate stats: %+v", base.Stats)
	}
	for run := 0; run < 3; run++ {
		res, err := explore.AnalyzeAcyclic(n, 0, explore.Options{})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if res != base {
			t.Errorf("run %d: %+v != first run %+v", run, res, base)
		}
	}
}

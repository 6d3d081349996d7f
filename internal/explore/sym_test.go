package explore_test

import (
	"testing"

	"fspnet/internal/bench"
	"fspnet/internal/explore"
	"fspnet/internal/fsp"
	"fspnet/internal/network"
)

func philosophersNet(t *testing.T, m int) *network.Network {
	t.Helper()
	n, err := bench.Philosophers(m)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSymmetryDifferentialPhilosophers pins the three cyclic engine
// configurations against each other on the ring family: the default
// (probes + quotient), the quotient alone, and the unreduced oracle
// must agree exactly, and the quotient must actually collapse states.
func TestSymmetryDifferentialPhilosophers(t *testing.T) {
	for _, m := range []int{3, 4, 6} {
		n := philosophersNet(t, m)
		oracle, err := explore.AnalyzeCyclic(n, 0, explore.Options{
			Tune: explore.Tuning{NoSymmetry: true, NoProbe: true}})
		if err != nil {
			t.Fatal(err)
		}
		sym, err := explore.AnalyzeCyclic(n, 0, explore.Options{
			Tune: explore.Tuning{NoProbe: true}})
		if err != nil {
			t.Fatal(err)
		}
		def, err := explore.AnalyzeCyclic(n, 0, explore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sym.Su != oracle.Su || sym.Sc != oracle.Sc {
			t.Fatalf("m=%d: quotient (Su=%v,Sc=%v) vs oracle (Su=%v,Sc=%v)",
				m, sym.Su, sym.Sc, oracle.Su, oracle.Sc)
		}
		if def.Su != oracle.Su || def.Sc != oracle.Sc {
			t.Fatalf("m=%d: default (Su=%v,Sc=%v) vs oracle (Su=%v,Sc=%v)",
				m, def.Su, def.Sc, oracle.Su, oracle.Sc)
		}
		if sym.Stats.GroupOrder != m {
			t.Errorf("m=%d: GroupOrder=%d, want %d", m, sym.Stats.GroupOrder, m)
		}
		if sym.Stats.OrbitHits == 0 {
			t.Errorf("m=%d: quotient run reports zero orbit hits", m)
		}
		if sym.Stats.States >= oracle.Stats.States {
			t.Errorf("m=%d: quotient interned %d states, oracle %d — no reduction",
				m, sym.Stats.States, oracle.Stats.States)
		}
		if sym.Stats.States+int(sym.Stats.SymStates) != oracle.Stats.States {
			t.Errorf("m=%d: representatives %d + collapsed %d ≠ raw %d",
				m, sym.Stats.States, sym.Stats.SymStates, oracle.Stats.States)
		}
	}
}

// TestSymmetryDeterministic requires bit-identical results and stats
// from repeated runs of the quotient engine.
func TestSymmetryDeterministic(t *testing.T) {
	n := philosophersNet(t, 6)
	var base explore.Result
	for run := 0; run < 4; run++ {
		res, err := explore.AnalyzeCyclic(n, 0, explore.Options{Tune: explore.Tuning{NoProbe: true}})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			base = res
			continue
		}
		if res != base {
			t.Fatalf("run %d: %+v differs from the first run: %+v", run, res, base)
		}
	}
}

// TestProbeDecidesPhilosophersWithoutExploration pins the philosophers20
// acceptance path: the witness probes must decide both cyclic
// predicates from a handful of raw states, never touching the joint
// space (MaxStates is set far below the reachable count to prove it).
func TestProbeDecidesPhilosophersWithoutExploration(t *testing.T) {
	for _, m := range []int{4, 10, 20} {
		n := philosophersNet(t, m)
		res, err := explore.AnalyzeCyclic(n, 0, explore.Options{MaxStates: 4})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if res.Su || !res.Sc {
			t.Fatalf("m=%d: got (Su=%v, Sc=%v), want (false, true)", m, res.Su, res.Sc)
		}
		if res.Stats.States != 0 {
			t.Errorf("m=%d: probes decided, yet %d joint states were interned", m, res.Stats.States)
		}
		if res.Stats.ProbeStates == 0 || res.Stats.ProbeStates > 2*4096 {
			t.Errorf("m=%d: ProbeStates=%d out of range", m, res.Stats.ProbeStates)
		}
	}
}

// symmetricFork builds an acyclic network where the distinguished
// process itself sits in a nontrivial orbit: a hub that takes either
// leaf's handshake once, with two interchangeable leaves. Analyzed from
// leaf 1, the two stuck outcomes (leaf 1 consumed vs leaf 2 consumed)
// collapse to one representative, and the stuck classification must
// scan the orbit of the distinguished position to recover both flags.
func symmetricFork(t *testing.T) *network.Network {
	t.Helper()
	bh := fsp.NewBuilder("Hub")
	h0, h1 := bh.State("h0"), bh.State("h1")
	bh.Add(h0, "a1", h1)
	bh.Add(h0, "a2", h1)
	var procs []*fsp.FSP
	procs = append(procs, bh.MustBuild())
	for i := 1; i <= 2; i++ {
		bl := fsp.NewBuilder("Leaf")
		l0, l1 := bl.State("l0"), bl.State("l1")
		bl.Add(l0, fsp.Action("a"+string(rune('0'+i))), l1)
		procs = append(procs, bl.MustBuild())
	}
	n, err := network.New(procs...)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSymmetryAcyclicOrbitClassification(t *testing.T) {
	n := symmetricFork(t)
	oracle, err := explore.AnalyzeAcyclic(n, 1, explore.Options{
		Tune: explore.Tuning{NoSymmetry: true}})
	if err != nil {
		t.Fatal(err)
	}
	sym, err := explore.AnalyzeAcyclic(n, 1, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// From leaf 1's view: if the hub serves leaf 2, leaf 1 is stuck off
	// its leaf state (¬S_u); if it serves leaf 1, it ends on the leaf
	// (S_c). The quotient sees one stuck representative for both.
	if oracle.Su || !oracle.Sc {
		t.Fatalf("oracle got (Su=%v, Sc=%v), want (false, true)", oracle.Su, oracle.Sc)
	}
	if sym.Su != oracle.Su || sym.Sc != oracle.Sc {
		t.Fatalf("quotient (Su=%v,Sc=%v) disagrees with oracle (Su=%v,Sc=%v)",
			sym.Su, sym.Sc, oracle.Su, oracle.Sc)
	}
	if sym.Stats.GroupOrder < 2 {
		t.Fatalf("GroupOrder=%d, want the leaf swap discovered", sym.Stats.GroupOrder)
	}
	if sym.Stats.States >= oracle.Stats.States {
		t.Errorf("no state reduction: %d vs %d", sym.Stats.States, oracle.Stats.States)
	}
}

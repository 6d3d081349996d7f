package explore_test

import (
	"testing"

	"fspnet/internal/bench"
	"fspnet/internal/explore"
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

// TestProbeDecidesPhilosophersWithoutExploration pins the philosophers20
// acceptance path: the witness probes must decide both cyclic
// predicates from a handful of states, never touching the joint
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

// Tests pinning the witness probe of the belief engine: it is a pure
// how-optimization, so it must return the oracle's verdict.
package belief_test

import (
	"testing"

	"fspnet/internal/bench"
	"fspnet/internal/game"
	"fspnet/internal/game/belief"
)

// TestProbeDecidesPhilosophers pins the probe fast path on the ring: the
// context diverges (any other philosopher's eat cycle is context-τ), so
// S_a is false from a handful of vectors, with no context
// enumeration at all — which is what makes philosophers20 feasible.
func TestProbeDecidesPhilosophers(t *testing.T) {
	for _, m := range []int{4, 10, 20} {
		n, err := bench.Philosophers(m)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := belief.SolveCyclic(n, 0, game.Options{})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if got {
			t.Fatalf("m=%d: S_a=true, want false", m)
		}
		if st.CtxStates != 0 {
			t.Errorf("m=%d: probe decided, yet %d context states enumerated", m, st.CtxStates)
		}
		if st.ProbeStates == 0 || st.ProbeStates > 64 {
			t.Errorf("m=%d: ProbeStates=%d, want a handful", m, st.ProbeStates)
		}
	}
	// The probe's verdict must match the full engine where the latter is
	// feasible.
	n, err := bench.Philosophers(4)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := belief.SolveCyclicTuned(n, 0, game.Options{}, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if want {
		t.Fatalf("oracle disagrees: S_a=%v, probe said false", want)
	}
}

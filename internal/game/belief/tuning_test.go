// Tests pinning the Tuning contract: the production configuration and
// the probe-free oracle configuration must return identical verdicts.
package belief_test

import (
	"fmt"
	"math/rand"
	"testing"

	"fspnet/internal/fsptest"
	"fspnet/internal/game"
	"fspnet/internal/game/belief"
	"fspnet/internal/network"
)

// oracle is the differential reference configuration: no witness
// probe, so every verdict comes from the exhaustive engine.
var oracle = belief.Tuning{NoProbe: true}

// tunedPair runs the tuned engine and the oracle on one instance and
// requires the same verdict.
func tunedPair(t *testing.T, n *network.Network, cyclic bool, tune belief.Tuning, tag string) belief.Stats {
	t.Helper()
	solve := belief.SolveAcyclicTuned
	if cyclic {
		solve = belief.SolveCyclicTuned
	}
	got, st, err := solve(n, 0, game.Options{}, tune)
	if err != nil {
		t.Fatalf("%s: tuned %+v: %v", tag, tune, err)
	}
	want, _, err := solve(n, 0, game.Options{}, oracle)
	if err != nil {
		t.Fatalf("%s: oracle: %v", tag, err)
	}
	if got != want {
		t.Fatalf("%s: tuned %+v S_a=%v, oracle S_a=%v (stats %+v)", tag, tune, got, want, st)
	}
	return st
}

// TestTunedAgainstOracle sweeps random tree networks under both
// semantics, comparing the default against the probe-free oracle.
func TestTunedAgainstOracle(t *testing.T) {
	for _, cyclic := range []bool{false, true} {
		for seed := int64(0); seed < 40; seed++ {
			r := rand.New(rand.NewSource(4200 + seed))
			cfg := fsptest.NetConfig{
				Procs:          2 + r.Intn(4),
				ActionsPerEdge: 1 + r.Intn(2),
				MaxStates:      3 + r.Intn(3),
				TauProb:        0.2,
				Cyclic:         cyclic,
			}
			n := fsptest.TreeNetwork(r, cfg)
			tunedPair(t, n, cyclic, belief.Tuning{}, fmt.Sprintf("seed %d cyclic=%v", seed, cyclic))
		}
	}
}

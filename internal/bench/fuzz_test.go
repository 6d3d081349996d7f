package bench_test

import (
	"math/rand"
	"testing"

	"fspnet/internal/bench"
	"fspnet/internal/explore"
	"fspnet/internal/fsptest"
	"fspnet/internal/game/belief"
	"fspnet/internal/network"
	"fspnet/internal/success"
)

// FuzzDifferentialProbe cross-checks the engines with their witness
// probes on against the probe-free exhaustive oracle on randomized
// instances, over all three predicates. mode selects the generator:
// random tree networks (both semantics), the dining-philosophers ring,
// and the hub-and-spoke clique — the latter two are where the probes
// decide from a few vectors what the oracle decides by exhaustion. The
// probes are a pure how-optimization; any verdict divergence is a
// soundness bug.
func FuzzDifferentialProbe(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint8(seed), uint8(0))
		f.Add(seed, uint8(seed), uint8(1))
		f.Add(seed, uint8(seed), uint8(2))
		f.Add(seed, uint8(seed), uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, size, mode uint8) {
		var (
			n      *network.Network
			cyclic bool
			err    error
		)
		switch mode % 4 {
		case 0, 1:
			cyclic = mode%4 == 1
			r := rand.New(rand.NewSource(seed))
			n = fsptest.TreeNetwork(r, fsptest.NetConfig{
				Procs:          2 + int(size)%4,
				ActionsPerEdge: 1 + int(size)%2,
				MaxStates:      3 + int(size)%3,
				TauProb:        0.2,
				Cyclic:         cyclic,
			})
		case 2:
			cyclic = true
			n, err = bench.Philosophers(3 + int(size)%4)
		case 3:
			cyclic = true
			n, err = bench.SymmetricClique(2 + int(size)%5)
		}
		if err != nil {
			t.Fatal(err)
		}
		analyze := success.AnalyzeAcyclicOpts
		if cyclic {
			analyze = success.AnalyzeCyclicOpts
		}
		want, err := analyze(n, 0, success.Options{NoProbe: true})
		if err != nil {
			t.Skip() // instance too large for the oracle's default budget
		}
		var bst belief.Stats
		var est explore.Stats
		got, err := analyze(n, 0, success.Options{BeliefStats: &bst, ExploreStats: &est})
		if err != nil {
			t.Fatalf("probing engines failed where the oracle succeeded: %v", err)
		}
		if got != want {
			t.Fatalf("divergence: probes on %+v, oracle %+v (seed=%d size=%d mode=%d, explore %+v, belief %+v)",
				got, want, seed, size, mode, est, bst)
		}
	})
}

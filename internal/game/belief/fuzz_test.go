package belief_test

import (
	"math/rand"
	"testing"

	"fspnet/internal/bench"
	"fspnet/internal/fsptest"
	"fspnet/internal/game"
	"fspnet/internal/game/belief"
	"fspnet/internal/guard"
	"fspnet/internal/network"
	"fspnet/internal/reduce"
)

// FuzzDifferentialSa cross-checks the belief engine against the legacy
// compose-then-recurse solver on randomized instances. mode selects the
// generator: random acyclic tree networks, random cyclic (leafless) tree
// networks, or Theorem 2 QBF gadgets; the remaining bytes steer the
// instance size. Every divergence is a soundness bug in one of the two
// engines.
func FuzzDifferentialSa(f *testing.F) {
	// Seed corpus: both Figure 4 semantics on trees, plus Theorem 2
	// gadget fixtures.
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed%5), uint8(0))
		f.Add(seed, uint8(seed%5), uint8(1))
		f.Add(seed, uint8(seed%4), uint8(2))
	}
	f.Fuzz(func(t *testing.T, seed int64, size, mode uint8) {
		var (
			n      *network.Network
			cyclic bool
			err    error
		)
		switch mode % 3 {
		case 0, 1:
			cyclic = mode%3 == 1
			r := rand.New(rand.NewSource(seed))
			n = fsptest.TreeNetwork(r, fsptest.NetConfig{
				Procs:          2 + int(size)%4,
				ActionsPerEdge: 1 + int(size)%2,
				MaxStates:      3 + int(size)%3,
				TauProb:        0.2,
				Cyclic:         cyclic,
			})
		case 2:
			n, err = reduce.QbfGadget(bench.QbfInstance(seed, 1+int(size)%3))
			if err != nil {
				t.Skip() // unsupported random formula shape
			}
		}
		q, err := n.Context(0, cyclic)
		if err != nil {
			t.Fatal(err)
		}
		var want bool
		if cyclic {
			want, err = game.SolveCyclic(n.Process(0), q)
		} else {
			want, err = game.SolveAcyclic(n.Process(0), q)
		}
		if err != nil {
			if guard.IsLimit(err) {
				t.Skip() // instance too large for the oracle's default budget
			}
			t.Fatal(err)
		}
		var got bool
		if cyclic {
			got, _, err = belief.SolveCyclic(n, 0, game.Options{})
		} else {
			got, _, err = belief.SolveAcyclic(n, 0, game.Options{})
		}
		if err != nil {
			t.Fatalf("belief engine failed where the oracle succeeded: %v", err)
		}
		if got != want {
			t.Fatalf("divergence: belief S_a=%v, legacy S_a=%v (seed=%d size=%d mode=%d)",
				got, want, seed, size, mode)
		}
	})
}

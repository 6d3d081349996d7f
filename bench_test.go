// Benchmarks regenerating the shape of every complexity claim in the
// paper's results — one benchmark per experiment of EXPERIMENTS.md. Run
// with:
//
//	go test -bench=. -benchmem
package fspnet_test

import (
	"fmt"
	"testing"

	"fspnet/internal/bench"
	"fspnet/internal/explore"
	"fspnet/internal/fsp"
	"fspnet/internal/game"
	"fspnet/internal/game/belief"
	"fspnet/internal/linear"
	"fspnet/internal/network"
	"fspnet/internal/poss"
	"fspnet/internal/reduce"
	"fspnet/internal/sat"
	"fspnet/internal/success"
	"fspnet/internal/treesolve"
	"fspnet/internal/unary"
)

// mustGen returns an unwrapper for workload-generator results, so
// benchmark setup can stay a one-liner: n := mustGen(b)(bench.X(...)).
func mustGen(b *testing.B) func(*network.Network, error) *network.Network {
	return func(n *network.Network, err error) *network.Network {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
}

// BenchmarkE1LinearNetworks measures Proposition 1's near-linear decision
// on growing all-linear chains.
func BenchmarkE1LinearNetworks(b *testing.B) {
	for _, m := range []int{10, 100, 1000} {
		n := mustGen(b)(bench.LinearChain(m, 2))
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := linear.Analyze(n, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2SatGadgetCase1 measures the reference S_c decision on the
// Theorem 1 case (1) gadgets as the formula grows (exponential shape).
func BenchmarkE2SatGadgetCase1(b *testing.B) {
	for _, vars := range []int{2, 4, 6, 8} {
		f := bench.SatInstance(int64(1000+vars), vars)
		n, err := reduce.SatGadgetCase1(f)
		if err != nil {
			b.Fatal(err)
		}
		q, err := n.Context(0, false)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("vars=%d", vars), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := success.CollaborationAcyclic(n.Process(0), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3SatGadgetCase2 is E2 for the all-O(1)-trees gadget.
func BenchmarkE3SatGadgetCase2(b *testing.B) {
	for _, vars := range []int{2, 4, 6} {
		f := bench.SatInstance(int64(1000+vars), vars)
		n, err := reduce.SatGadgetCase2(f)
		if err != nil {
			b.Fatal(err)
		}
		q, err := n.Context(0, false)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("vars=%d", vars), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := success.CollaborationAcyclic(n.Process(0), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4QbfGadget measures the belief-set game on the Theorem 2
// gadgets (PSPACE shape).
func BenchmarkE4QbfGadget(b *testing.B) {
	for _, vars := range []int{2, 3, 4, 5} {
		q := bench.QbfInstance(int64(2000+vars), vars)
		n, err := reduce.QbfGadget(q)
		if err != nil {
			b.Fatal(err)
		}
		ctx, err := n.Context(0, false)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("vars=%d", vars), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := game.SolveAcyclic(n.Process(0), ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5TreeSolveVsGlobal compares the Theorem 3 normal-form solver
// with the global reference on the same tree networks.
func BenchmarkE5TreeSolveVsGlobal(b *testing.B) {
	for _, m := range []int{3, 5, 7, 9} {
		n := mustGen(b)(bench.TreeNetwork(int64(3000+m), m))
		b.Run(fmt.Sprintf("treesolve/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := treesolve.Analyze(n, 0, treesolve.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("reference/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := success.AnalyzeAcyclic(n, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6RingNetworks measures the Figure 8a k-tree front end.
func BenchmarkE6RingNetworks(b *testing.B) {
	for _, m := range []int{4, 6, 8} {
		n := mustGen(b)(bench.RingNetwork(int64(4000+m), m))
		partition := network.RingPartition(m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := treesolve.AnalyzeKTree(n, 0, partition, treesolve.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7CyclicReference measures the Section 4 cyclic analysis on
// dining-philosopher rings (the dⁿ shape of Proposition 2).
func BenchmarkE7CyclicReference(b *testing.B) {
	for _, m := range []int{2, 3, 4} {
		n := mustGen(b)(bench.Philosophers(m))
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := success.AnalyzeCyclic(n, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8UnaryChains measures Theorem 4's numeric reduction on
// multiply-by-2 chains whose budgets need binary coding.
func BenchmarkE8UnaryChains(b *testing.B) {
	for _, m := range []int{2, 8, 32} {
		n := mustGen(b)(bench.DoublingChain(m, 3, false))
		b.Run(fmt.Sprintf("unary/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := unary.Collaboration(n, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The explicit composition for contrast, small sizes only.
	for _, m := range []int{2, 4} {
		n := mustGen(b)(bench.DoublingChain(m, 3, false))
		q, err := n.Context(0, true)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("reference/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := success.CollaborationCyclic(n.Process(0), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9NormalForm measures possibility enumeration plus normal-form
// construction (the Theorem 3 inner loop).
func BenchmarkE9NormalForm(b *testing.B) {
	for _, maxStates := range []int{4, 8, 16} {
		_, q := bench.RandomAcyclicPair(int64(5000+maxStates), maxStates)
		b.Run(fmt.Sprintf("states<=%d", maxStates), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				set, err := poss.Of(q, poss.DefaultBudget)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := poss.NormalForm("NF", set); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE11Engine compares the on-the-fly joint-vector engine with
// the compose-then-explore reference on the same networks (acyclic trees
// and philosopher rings).
func BenchmarkE11Engine(b *testing.B) {
	for _, m := range []int{8, 12, 16} {
		n := mustGen(b)(bench.TreeNetwork(int64(7000+m), m))
		b.Run(fmt.Sprintf("engine/tree/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := explore.AnalyzeAcyclic(n, 0, explore.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, m := range []int{8, 12} {
		n := mustGen(b)(bench.TreeNetwork(int64(7000+m), m))
		b.Run(fmt.Sprintf("reference/tree/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, err := success.AnalyzeAcyclicOpts(n, 0, success.Options{Backend: success.BackendCompose})
				if err != nil {
					b.Fatal(err)
				}
				_ = v
			}
		})
	}
	for _, m := range []int{4, 6, 8} {
		n := mustGen(b)(bench.Philosophers(m))
		b.Run(fmt.Sprintf("engine/phil/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := explore.AnalyzeCyclic(n, 0, explore.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12BeliefGame compares the compose-free bitset belief engine
// with the compose-then-recurse S_a reference on the E11 families. The
// reference rows stop at the sizes whose context fold still fits in
// memory; the belief rows keep going.
func BenchmarkE12BeliefGame(b *testing.B) {
	for _, m := range []int{8, 12, 16} {
		n := mustGen(b)(bench.TreeNetwork(int64(7000+m), m))
		b.Run(fmt.Sprintf("belief/tree/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := belief.SolveAcyclic(n, 0, game.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, m := range []int{8, 12} {
		n := mustGen(b)(bench.TreeNetwork(int64(7000+m), m))
		b.Run(fmt.Sprintf("reference/tree/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q, err := n.Context(0, false)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := game.SolveAcyclic(n.Process(0), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, m := range []int{4, 6, 8, 10} {
		n := mustGen(b)(bench.Philosophers(m))
		b.Run(fmt.Sprintf("belief/phil/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := belief.SolveCyclic(n, 0, game.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, m := range []int{4, 6} {
		n := mustGen(b)(bench.Philosophers(m))
		b.Run(fmt.Sprintf("reference/phil/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q, err := n.Context(0, true)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := game.SolveCyclic(n.Process(0), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompose measures the composition operator itself.
func BenchmarkCompose(b *testing.B) {
	p, q := bench.RandomAcyclicPair(42, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = fsp.Compose(p, q)
	}
}

// BenchmarkDPLL measures the SAT oracle on restricted 3SAT instances.
func BenchmarkDPLL(b *testing.B) {
	f := bench.SatInstance(77, 12)
	for i := 0; i < b.N; i++ {
		_, _ = sat.Solve(f)
	}
}

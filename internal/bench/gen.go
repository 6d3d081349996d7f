// Package bench contains the workload generators and the table harness
// behind EXPERIMENTS.md: one scaling family per complexity claim of the
// paper (E1–E9 in DESIGN.md), plus helpers to time the competing
// algorithms and print aligned result tables.
package bench

import (
	"fmt"
	"math/rand"

	"fspnet/internal/fsp"
	"fspnet/internal/fsptest"
	"fspnet/internal/network"
	"fspnet/internal/sat"
)

// LinearChain builds the E1 family: m linear processes in a path, the
// i-th sharing one symbol with the (i+1)-th, each edge handshaken reps
// times in an order that always succeeds.
func LinearChain(m, reps int) (*network.Network, error) {
	procs := make([]*fsp.FSP, m)
	for i := 0; i < m; i++ {
		var seq []fsp.Action
		left := fsp.Action(fmt.Sprintf("x%d", i-1))
		right := fsp.Action(fmt.Sprintf("x%d", i))
		for k := 0; k < reps; k++ {
			if i > 0 {
				seq = append(seq, left)
			}
			if i < m-1 {
				seq = append(seq, right)
			}
		}
		procs[i] = fsp.Linear(fmt.Sprintf("P%d", i), seq...)
	}
	return network.New(procs...)
}

// SatInstance builds the E2/E3 family: a random restricted 3SAT formula
// with the given variable count.
func SatInstance(seed int64, vars int) *sat.CNF {
	r := rand.New(rand.NewSource(seed))
	return sat.RandomRestricted3SAT(r, vars)
}

// QbfInstance builds the E4 family: a random alternating QBF.
func QbfInstance(seed int64, vars int) *sat.QBF {
	r := rand.New(rand.NewSource(seed))
	return sat.RandomQBF(r, vars, vars)
}

// TreeNetwork builds the E5 family: a random tree network of m tree FSPs
// of bounded size with a τ-free distinguished process 0.
func TreeNetwork(seed int64, m int) (*network.Network, error) {
	r := rand.New(rand.NewSource(seed))
	return fsptest.TreeNetwork(r, fsptest.NetConfig{
		Procs:          m,
		ActionsPerEdge: 1,
		MaxStates:      4,
		TauProb:        0.15,
	}), nil
}

// RingNetwork builds the E6 family: a ring of m small processes with one
// symbol per ring edge (a 2-tree via the Figure 8a folding).
func RingNetwork(seed int64, m int) (*network.Network, error) {
	r := rand.New(rand.NewSource(seed))
	procs := make([]*fsp.FSP, m)
	for i := 0; i < m; i++ {
		left := fsp.Action(fmt.Sprintf("x%02d", (i+m-1)%m))
		right := fsp.Action(fmt.Sprintf("x%02d", i))
		seq := []fsp.Action{left, right}
		if r.Intn(2) == 0 {
			seq[0], seq[1] = seq[1], seq[0]
		}
		procs[i] = fsp.Linear(fmt.Sprintf("P%d", i), seq...)
	}
	return network.New(procs...)
}

// Philosophers builds the E7 family: the dining-philosophers ring with m
// philosophers and m forks (2m processes, a cyclic 2m-ring in C_N).
// Philosopher i grabs its left fork, then its right fork, eats, and
// releases both — the classic potential-deadlock system.
func Philosophers(m int) (*network.Network, error) {
	procs := make([]*fsp.FSP, 0, 2*m)
	take := func(i, j int) fsp.Action { return fsp.Action(fmt.Sprintf("take%d_%d", i, j)) }
	rel := func(i, j int) fsp.Action { return fsp.Action(fmt.Sprintf("rel%d_%d", i, j)) }
	for i := 0; i < m; i++ {
		left, right := i, (i+1)%m
		b := fsp.NewBuilder(fmt.Sprintf("Phil%d", i))
		s0, s1, s2, s3 := b.State("think"), b.State("left"), b.State("both"), b.State("done1")
		b.Add(s0, take(i, left), s1)
		b.Add(s1, take(i, right), s2)
		b.Add(s2, rel(i, left), s3)
		b.Add(s3, rel(i, right), s0)
		procs = append(procs, b.MustBuild())
	}
	for j := 0; j < m; j++ {
		// Fork j serves philosophers j (as its left fork) and j−1 (as its
		// right fork).
		b := fsp.NewBuilder(fmt.Sprintf("Fork%d", j))
		free := b.State("free")
		for _, i := range []int{j, (j + m - 1) % m} {
			held := b.State(fmt.Sprintf("held%d", i))
			b.Add(free, take(i, j), held)
			b.Add(held, rel(i, j), free)
		}
		procs = append(procs, b.MustBuild())
	}
	return network.New(procs...)
}

// PhilosophersPolite is the Philosophers family with philosopher 0
// grabbing its right fork first — the standard asymmetric fix that removes
// the circular wait.
func PhilosophersPolite(m int) (*network.Network, error) {
	base, err := Philosophers(m)
	if err != nil {
		return nil, err
	}
	procs := base.Processes()
	take := func(i, j int) fsp.Action { return fsp.Action(fmt.Sprintf("take%d_%d", i, j)) }
	rel := func(i, j int) fsp.Action { return fsp.Action(fmt.Sprintf("rel%d_%d", i, j)) }
	b := fsp.NewBuilder("Phil0")
	s0, s1, s2, s3 := b.State("think"), b.State("right"), b.State("both"), b.State("done1")
	right := 1 % m
	b.Add(s0, take(0, right), s1)
	b.Add(s1, take(0, 0), s2)
	b.Add(s2, rel(0, 0), s3)
	b.Add(s3, rel(0, right), s0)
	procs[0] = b.MustBuild()
	return network.New(procs...)
}

// SymmetricClique builds the hub-and-spoke family: a network of k
// interchangeable leaves around a hub, with a distinguished client P
// talking only to the hub. The k leaves are pairwise swappable
// (relabeling ask_i/done_i), and none of those actions is owned by P,
// so P's context holds k interchangeable members. P carries an extra
// req self-loop so it is never shaped like a leaf.
func SymmetricClique(k int) (*network.Network, error) {
	if k < 2 {
		return nil, fmt.Errorf("bench: symmetric clique needs at least 2 leaves, got %d", k)
	}
	ask := func(i int) fsp.Action { return fsp.Action(fmt.Sprintf("ask%d", i)) }
	done := func(i int) fsp.Action { return fsp.Action(fmt.Sprintf("done%d", i)) }
	procs := make([]*fsp.FSP, 0, k+2)
	bp := fsp.NewBuilder("P")
	p0, p1 := bp.State("idle"), bp.State("wait")
	bp.Add(p0, "req", p1)
	bp.Add(p1, "req", p1)
	bp.Add(p1, "ack", p0)
	procs = append(procs, bp.MustBuild())
	bh := fsp.NewBuilder("Hub")
	h0, h1 := bh.State("idle"), bh.State("busy")
	bh.Add(h0, "req", h1)
	bh.Add(h1, "req", h1)
	bh.Add(h1, "ack", h0)
	for i := 0; i < k; i++ {
		serve := bh.State(fmt.Sprintf("serve%d", i))
		bh.Add(h0, ask(i), serve)
		bh.Add(serve, done(i), h0)
	}
	procs = append(procs, bh.MustBuild())
	for i := 0; i < k; i++ {
		bl := fsp.NewBuilder(fmt.Sprintf("Leaf%d", i))
		l0, l1 := bl.State("idle"), bl.State("served")
		bl.Add(l0, ask(i), l1)
		bl.Add(l1, done(i), l0)
		procs = append(procs, bl.MustBuild())
	}
	return network.New(procs...)
}

// DoublingChain builds the E8 family: root loops on x0; m multiply-by-2
// machines; a base process granting its channel `base` times (or forever
// when inf). The interface count at the root is base·2^m.
func DoublingChain(m int, base int64, inf bool) (*network.Network, error) {
	procs := []*fsp.FSP{}
	bp := fsp.NewBuilder("P")
	r := bp.State("0")
	bp.Add(r, "x0", r)
	procs = append(procs, bp.MustBuild())
	for i := 0; i < m; i++ {
		up := fsp.Action(fmt.Sprintf("x%d", i))
		down := fsp.Action(fmt.Sprintf("x%d", i+1))
		b := fsp.NewBuilder(fmt.Sprintf("M%d", i))
		s0, s1, s2 := b.State("0"), b.State("1"), b.State("2")
		b.Add(s0, down, s1)
		b.Add(s1, up, s2)
		b.Add(s2, up, s0)
		procs = append(procs, b.MustBuild())
	}
	last := fsp.Action(fmt.Sprintf("x%d", m))
	if inf {
		bb := fsp.NewBuilder("B")
		s := bb.State("0")
		bb.Add(s, last, s)
		procs = append(procs, bb.MustBuild())
	} else {
		acts := make([]fsp.Action, base)
		for i := range acts {
			acts[i] = last
		}
		procs = append(procs, fsp.Linear("B", acts...))
	}
	return network.New(procs...)
}

// RandomAcyclicPair builds the E9 family: a random acyclic closed pair for
// normal-form and congruence throughput measurements.
func RandomAcyclicPair(seed int64, maxStates int) (*fsp.FSP, *fsp.FSP) {
	r := rand.New(rand.NewSource(seed))
	cfg := fsptest.DefaultConfig()
	cfg.MaxStates = maxStates
	return fsptest.TwoProcessClosed(r, cfg)
}

// DeepChain builds the E10 family: a path topology P0 — P1 — … — P(m−1)
// of small tree processes, so the single subtree hanging off P0 composes
// m−1 processes. The possibility normal form compresses that subtree to
// its interface behavior; the ablation keeps the raw composition.
func DeepChain(seed int64, m int) (*network.Network, error) {
	r := rand.New(rand.NewSource(seed))
	procs := make([]*fsp.FSP, m)
	for i := 0; i < m; i++ {
		b := fsp.NewBuilder(fmt.Sprintf("P%d", i))
		s0 := b.State("0")
		left := fsp.Action(fmt.Sprintf("d%d", i-1))
		right := fsp.Action(fmt.Sprintf("d%d", i))
		switch {
		case i == 0:
			s1 := b.State("1")
			b.Add(s0, right, s1)
			b.Add(s1, right, b.State("2"))
		case i == m-1:
			s1 := b.State("1")
			b.Add(s0, left, s1)
			b.Add(s1, left, b.State("2"))
		default:
			// Branch: serve the left edge then maybe the right, with one
			// spare left handshake; shapes vary with the seed.
			s1 := b.State("1")
			b.Add(s0, left, s1)
			s2 := b.State("2")
			b.Add(s1, right, s2)
			b.Add(s2, right, b.State("3"))
			b.Add(s1, left, b.State("4"))
			if r.Intn(2) == 0 {
				b.Add(s0, left, b.State("5"))
			}
		}
		procs[i] = b.MustBuild()
	}
	return network.New(procs...)
}

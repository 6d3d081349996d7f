package symred_test

import (
	"fmt"
	"sort"
	"testing"

	"fspnet/internal/bench"
	"fspnet/internal/fsp"
	"fspnet/internal/network"
	"fspnet/internal/symred"
)

// clique builds the hub-and-spoke family inline: a distinguished process
// P talking to a hub, and k interchangeable leaves each talking only to
// the hub over leaf-specific actions. Its automorphism group is the
// symmetric group on the leaves.
func clique(t *testing.T, k int) *network.Network {
	t.Helper()
	var procs []*fsp.FSP
	bp := fsp.NewBuilder("P")
	a0, a1 := bp.State("a"), bp.State("b")
	bp.Add(a0, "req", a1)
	bp.Add(a1, "req", a1) // extra self-loop: makes P's shape distinct from a leaf's
	bp.Add(a1, "ack", a0)
	procs = append(procs, bp.MustBuild())
	bh := fsp.NewBuilder("Hub")
	idle := bh.State("idle")
	r := bh.State("r")
	bh.Add(idle, "req", r)
	bh.Add(r, "req", r)
	bh.Add(r, "ack", idle)
	for i := 0; i < k; i++ {
		s := bh.State(fmt.Sprintf("serve%d", i))
		bh.Add(idle, fsp.Action(fmt.Sprintf("ask%d", i)), s)
		bh.Add(s, fsp.Action(fmt.Sprintf("done%d", i)), idle)
	}
	procs = append(procs, bh.MustBuild())
	for i := 0; i < k; i++ {
		bl := fsp.NewBuilder(fmt.Sprintf("Leaf%d", i))
		l0, l1 := bl.State("idle"), bl.State("wait")
		bl.Add(l0, fsp.Action(fmt.Sprintf("ask%d", i)), l1)
		bl.Add(l1, fsp.Action(fmt.Sprintf("done%d", i)), l0)
		procs = append(procs, bl.MustBuild())
	}
	n, err := network.New(procs...)
	if err != nil {
		t.Fatalf("clique(%d): %v", k, err)
	}
	return n
}

func philosophers(t *testing.T, m int) *network.Network {
	t.Helper()
	n, err := bench.Philosophers(m)
	if err != nil {
		t.Fatalf("Philosophers(%d): %v", m, err)
	}
	return n
}

// applyElem returns e·vec.
func applyElem(e *symred.Elem, vec []uint32) []uint32 {
	out := make([]uint32, len(vec))
	for j := range vec {
		out[e.Proc[j]] = uint32(e.State[j][vec[j]])
	}
	return out
}

// orbit returns the sorted images of process j under the elements and
// their inverses, closed under repetition.
func orbit(g *symred.Group, j int32) []int32 {
	seen := map[int32]bool{j: true}
	out := []int32{j}
	for i := 0; i < len(out); i++ {
		for _, e := range g.Elems() {
			for _, f := range [2]int32{e.Proc[out[i]], e.Inv[out[i]]} {
				if !seen[f] {
					seen[f] = true
					out = append(out, f)
				}
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func TestPhilosophersRotationGroup(t *testing.T) {
	for _, m := range []int{3, 5, 6, 10} {
		n := philosophers(t, m)
		g := symred.Discover(n)
		// The left-first asymmetry of the family kills reflections: the
		// group is exactly the cyclic group C_m of ring rotations.
		if g.Order() != m {
			t.Fatalf("m=%d: Order=%d, want %d (rotations only)", m, g.Order(), m)
		}
		if orb := orbit(g, 0); len(orb) != m {
			t.Fatalf("m=%d: |orbit(phil0)|=%d, want %d", m, len(orb), m)
		}
		if orb := orbit(g, int32(m)); len(orb) != m || int(orb[0]) != m { // fork 0
			t.Fatalf("m=%d: orbit(fork0)=%v, want the %d forks", m, orb, m)
		}
		// Every element fixes the joint start vector.
		start := make([]uint32, n.Len())
		for j := range start {
			start[j] = uint32(n.Process(j).Start())
		}
		for ei := range g.Elems() {
			img := applyElem(&g.Elems()[ei], start)
			for j := range img {
				if img[j] != start[j] {
					t.Fatalf("m=%d: element %d moves the start vector to %v", m, ei, img)
				}
			}
		}
	}
}

func TestPhilosophersPoliteTrivial(t *testing.T) {
	n, err := bench.PhilosophersPolite(6)
	if err != nil {
		t.Fatal(err)
	}
	g := symred.Discover(n)
	if !g.Trivial() || g.Order() != 1 || len(g.Elems()) != 0 {
		t.Fatalf("polite ring: Order=%d, want trivial (philosopher 0 is asymmetric)", g.Order())
	}
}

func TestCliqueSwapGroup(t *testing.T) {
	k := 5
	n := clique(t, k)
	g := symred.Discover(n)
	// All k(k−1)/2 leaf transpositions are discovered as elements.
	if want := k*(k-1)/2 + 1; g.Order() != want {
		t.Fatalf("clique(%d): Order=%d, want %d", k, g.Order(), want)
	}
	if orb := orbit(g, 2); len(orb) != k {
		t.Fatalf("leaf orbit %v, want all %d leaves", orb, k)
	}
	if len(orbit(g, 0)) != 1 || len(orbit(g, 1)) != 1 {
		t.Fatal("P and Hub must be fixed points")
	}
}

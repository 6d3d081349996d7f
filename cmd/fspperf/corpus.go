package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"

	"fspnet/internal/bench"
	"fspnet/internal/fsp"
	"fspnet/internal/fsplang"
	"fspnet/internal/fsptest"
	"fspnet/internal/network"
)

// family says how a corpus network was generated, and so where its
// reference verdict comes from.
type family uint8

const (
	famTree   family = iota // random acyclic tree network (fsptest)
	famPhil                 // dining-philosopher ring (bench.Philosophers)
	famBuffer               // cyclic ring of 2-slot token buffers
)

func (f family) String() string {
	return [...]string{"tree", "phil", "buffer"}[f]
}

// netSpec is one generated network: the parsed form for the in-process
// layers and the reference engines, and the canonical text sent on the
// wire.
type netSpec struct {
	fam  family
	m    int // trees: processes; phil: philosophers; buffers: buffers
	net  *network.Network
	text string // fsplang.Format(net), the request's network field
	proc string // process 0's name, which every verdict record carries
}

// sizes fixes the family parameters of one corpus scale.
type sizes struct {
	treeM, philM, bufM [2]int // inclusive ranges
	treeStates         int    // fsptest MaxStates per tree process
	rawCap             float64
}

// coldSizes is the scale of reach-cold and all-cold: big enough that the
// solvers do the work. The tree range stops at 18 because the generator
// patches every unused edge action in as a leaf, so with 3 drawn states
// per process no tree of 19 or 20 processes fits the 10^8 raw joint
// space cap.
var coldSizes = sizes{
	treeM: [2]int{14, 18}, philM: [2]int{4, 20}, bufM: [2]int{6, 10},
	treeStates: 3, rawCap: 1e8,
}

// smallSizes is the scale of the hot set and the stored set: solves cost
// tens of microseconds, so the service layers around them dominate.
var smallSizes = sizes{
	treeM: [2]int{4, 8}, philM: [2]int{2, 5}, bufM: [2]int{3, 6},
	treeStates: 3, rawCap: 1e8,
}

// blockFamilies is the family mix of every run of ten networks: 70%
// trees, 20% philosopher rings, 10% buffer rings. Each block is shuffled,
// and each family cycles through its size range in shuffled rounds, so a
// stream's cost mix does not depend on the seed, only its tree shapes do.
var blockFamilies = [10]family{famTree, famTree, famTree, famTree, famTree, famTree, famTree, famPhil, famPhil, famBuffer}

// subseed derives an independent generator seed from a path of integers
// (seed, list, index, ...), so every network is a pure function of its
// position and lists can be generated in any order or length.
func subseed(parts ...int64) int64 {
	h := sha256.New()
	var b [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(b[:], uint64(p))
		h.Write(b[:])
	}
	return int64(binary.LittleEndian.Uint64(h.Sum(nil)[:8]) >> 1)
}

// listID names one network list of a seed's corpus. Distinct lists
// draw from distinct subseeds and carry distinct name tags, so no two
// lists share a network.
type listID struct {
	name  string // e.g. "cold-B"; also the key in a refs file
	tag   string // suffix appended to process names, unique per list
	key   int64  // subseed component
	scale *sizes
}

var (
	listColdA       = listID{"cold-A", "a", 1, &coldSizes}
	listColdB       = listID{"cold-B", "b", 2, &coldSizes}
	listHotSet      = listID{"hot-set", "h", 3, &smallSizes}
	listHotFreshA   = listID{"hot-fresh-A", "ha", 4, &smallSizes}
	listHotFreshB   = listID{"hot-fresh-B", "hb", 5, &smallSizes}
	listStoreSet    = listID{"store-set", "s", 6, &smallSizes}
	listStoreFreshA = listID{"store-fresh-A", "sa", 7, &smallSizes}
	listStoreFreshB = listID{"store-fresh-B", "sb", 8, &smallSizes}
)

// cyclePick returns the value of the k-th draw from [lo, hi] when the
// range is walked in rounds, each round a fresh seeded permutation.
func cyclePick(seed int64, l listID, fam family, k, lo, hi int) int {
	n := hi - lo + 1
	r := rand.New(rand.NewSource(subseed(seed, l.key, 100+int64(fam), int64(k/n))))
	return lo + r.Perm(n)[k%n]
}

// genList builds networks [from, to) of list l for seed.
func genList(seed int64, l listID, from, to int) []*netSpec {
	out := make([]*netSpec, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, genNet(seed, l, i))
	}
	return out
}

// genNet builds network i of list l: the family comes from i's slot in
// its shuffled block, the size from the family's round-robin over its
// range, the shape (trees only) from i's own generator.
func genNet(seed int64, l listID, i int) *netSpec {
	block, slot := i/len(blockFamilies), i%len(blockFamilies)
	br := rand.New(rand.NewSource(subseed(seed, l.key, 0, int64(block))))
	order := br.Perm(len(blockFamilies))
	fam := blockFamilies[order[slot]]
	// k counts earlier members of the same family in the stream.
	k := 0
	for s, f := range blockFamilies {
		if f == fam && s < order[slot] {
			k++
		}
	}
	perBlock := 0
	for _, f := range blockFamilies {
		if f == fam {
			perBlock++
		}
	}
	k += block * perBlock
	sz := l.scale
	var (
		n *network.Network
		m int
	)
	switch fam {
	case famTree:
		m = cyclePick(seed, l, fam, k, sz.treeM[0], sz.treeM[1])
		r := rand.New(rand.NewSource(subseed(seed, l.key, 1, int64(i))))
		n = randomTree(r, m, sz.treeStates, sz.rawCap)
	case famPhil:
		m = cyclePick(seed, l, fam, k, sz.philM[0], sz.philM[1])
		var err error
		if n, err = bench.Philosophers(m); err != nil {
			panic(err) // a fixed family; cannot fail for m ≥ 2
		}
	default:
		m = cyclePick(seed, l, fam, k, sz.bufM[0], sz.bufM[1])
		n = bufferRing(m, 2)
	}
	n = tagNames(n, fmt.Sprintf("%s%d", l.tag, i))
	return &netSpec{fam: fam, m: m, net: n, text: fsplang.Format(n), proc: n.Process(0).Name()}
}

// randomTree draws fsptest tree networks of m processes until one's raw
// joint space Π|S_i| fits rawCap.
func randomTree(r *rand.Rand, m, states int, rawCap float64) *network.Network {
	for {
		n := fsptest.TreeNetwork(r, fsptest.NetConfig{Procs: m, ActionsPerEdge: 1, MaxStates: states, TauProb: 0.15})
		raw := 1.0
		for i := 0; i < n.Len(); i++ {
			raw *= float64(n.Process(i).NumStates())
		}
		if raw <= rawCap {
			return n
		}
	}
}

// bufferRing builds m k-slot buffers in a ring: buffer i takes a token
// from buffer i-1 on t<i-1> and passes one on with t<i>. B0 starts full
// and the rest empty. Tokens are conserved and a full buffer can always
// pass one on, so the ring never blocks and every predicate holds; no
// witness probe can refute it, and the belief engine's context (the
// other m-1 buffers, each free to hold 0..k tokens) has (k+1)^(m-1)
// states.
func bufferRing(m, k int) *network.Network {
	procs := make([]*fsp.FSP, m)
	for i := 0; i < m; i++ {
		b := fsp.NewBuilder(fmt.Sprintf("B%d", i))
		st := make([]fsp.State, k+1)
		for c := range st {
			st[c] = b.State(fmt.Sprintf("c%d", c))
		}
		in := fsp.Action(fmt.Sprintf("t%d", (i+m-1)%m))
		out := fsp.Action(fmt.Sprintf("t%d", i))
		for c := 0; c <= k; c++ {
			if c < k {
				b.Add(st[c], in, st[c+1])
			}
			if c > 0 {
				b.Add(st[c], out, st[c-1])
			}
		}
		if i == 0 {
			b.SetStart(st[k])
		}
		procs[i] = b.MustBuild()
	}
	n, err := network.New(procs...)
	if err != nil {
		panic(err) // a fixed family; every action has exactly two owners
	}
	return n
}

// tagNames renames every process P to P_<tag>. The canonical text, and
// so the digest, changes while the verdict does not: a relabelled
// network is never-seen by the service but costs what its shape costs.
func tagNames(n *network.Network, tag string) *network.Network {
	procs := n.Processes()
	for i, p := range procs {
		procs[i] = p.Rename(p.Name() + "_" + tag)
	}
	out, err := network.New(procs...)
	if err != nil {
		panic(err) // renaming keeps Definition 2
	}
	return out
}

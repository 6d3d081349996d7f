// Package symred discovers automorphisms of a closed network — process
// permutations π combined with an action relabeling α and per-process
// state bijections σ that together preserve every start state, every
// transition, and the action-ownership map of Definition 2.
//
// No analysis engine uses it: the engines explore the unreduced joint
// space, and their witness probes decide the symmetric rings without a
// quotient. Discovery stays for the benchmark's per-layer trace, which
// times it and reports the discovered group order.
//
// Discovery is heuristic, verification exact: candidate elements are
// grown by constraint propagation from a seed assignment (π(0)=t for
// every structurally plausible t, plus every same-class transposition),
// matching states breadth-first and relabeling actions first-fit under
// the ownership constraint; every completed candidate is then checked
// exactly — bijectivity, start preservation, transition-set image
// equality, ownership equivariance — and discarded on any mismatch.
package symred

import (
	"encoding/binary"
	"sort"

	"fspnet/internal/fsp"
	"fspnet/internal/network"
)

// maxElems caps the verified elements kept per group; seeds beyond it are
// not tried. Rings contribute m−1 rotations and a swap class of k members
// k(k−1)/2 transpositions, so realistic networks sit far below the cap.
const maxElems = 512

// maxDense bounds the per-process state and action counts discovery will
// compile into its packed transition keys; larger networks get a trivial
// group rather than a wrong one.
const maxDense = 1 << 20

// Elem is one verified automorphism. Proc is the process permutation π
// (Inv its inverse), State[j][s] the state of process Proc[j] matching
// state s of process j, and Act the action relabeling over the group's
// dense action ids (the sorted union of the member alphabets).
type Elem struct {
	Proc  []int32
	Inv   []int32
	State [][]int32
	Act   []int32
}

// Group is a set of verified automorphisms of one network, closed only
// implicitly (compositions are never materialized). The zero-element
// group is the trivial group.
type Group struct {
	elems []Elem
}

// Trivial reports whether the group has no non-identity elements.
func (g *Group) Trivial() bool { return g == nil || len(g.elems) == 0 }

// Elems returns the verified non-identity elements. The slice and its
// contents must not be modified.
func (g *Group) Elems() []Elem {
	if g == nil {
		return nil
	}
	return g.elems
}

// Order returns the number of discovered elements including the
// identity — a lower bound on the order of the full automorphism group.
func (g *Group) Order() int {
	if g == nil {
		return 1
	}
	return len(g.elems) + 1
}

// ---------- discovery ----------

type vtrans struct{ aid, to int32 }

// dproc is one member compiled for discovery: dense action ids, sorted
// move tables, and a cheap structural fingerprint gating candidate
// images (exact verification is the real filter).
type dproc struct {
	ns     int
	start  int32
	tau    [][]int32
	vis    [][]vtrans
	ntrans int
	key    string
	tset   map[uint64]bool
}

type disc struct {
	m     int
	procs []dproc
	acts  []fsp.Action
	ownA  []int32
	ownB  []int32
}

func tkey(s int32, aid int32, to int32) uint64 {
	return uint64(uint32(s))<<42 | uint64(uint32(aid+1))<<21 | uint64(uint32(to))
}

// Discover compiles n and searches for automorphism elements. The
// result is deterministic in n: seeds are tried in index order and
// every verified element appended in discovery order.
func Discover(n *network.Network) *Group {
	m := n.Len()
	g := &Group{}
	if m < 2 {
		return g
	}
	procs := n.Processes()
	var acts []fsp.Action
	for _, p := range procs {
		acts = append(acts, p.Alphabet()...)
	}
	sort.Slice(acts, func(i, j int) bool { return acts[i] < acts[j] })
	w := 0
	for i, a := range acts {
		if i == 0 || a != acts[w-1] {
			acts[w] = a
			w++
		}
	}
	acts = acts[:w]
	if len(acts) >= maxDense {
		return g
	}
	aid := make(map[fsp.Action]int32, len(acts))
	for i, a := range acts {
		aid[a] = int32(i)
	}
	d := &disc{m: m, acts: acts, ownA: make([]int32, len(acts)), ownB: make([]int32, len(acts))}
	for i := range d.ownA {
		d.ownA[i], d.ownB[i] = -1, -1
	}
	for j, p := range procs {
		for _, a := range p.Alphabet() {
			id := aid[a]
			if d.ownA[id] < 0 {
				d.ownA[id] = int32(j)
			} else if d.ownB[id] < 0 {
				d.ownB[id] = int32(j)
			} else {
				return g // not a Definition 2 network; nothing to do here
			}
		}
	}
	d.procs = make([]dproc, m)
	for j, p := range procs {
		dp := &d.procs[j]
		dp.ns = p.NumStates()
		if dp.ns >= maxDense {
			return g
		}
		dp.start = int32(p.Start())
		dp.tau = make([][]int32, dp.ns)
		dp.vis = make([][]vtrans, dp.ns)
		dp.tset = make(map[uint64]bool)
		tauCnt := 0
		for s := 0; s < dp.ns; s++ {
			for _, t := range p.Out(fsp.State(s)) {
				if t.Label == fsp.Tau {
					dp.tau[s] = append(dp.tau[s], int32(t.To))
					dp.tset[tkey(int32(s), -1, int32(t.To))] = true
					tauCnt++
				} else {
					dp.vis[s] = append(dp.vis[s], vtrans{aid: aid[t.Label], to: int32(t.To)})
					dp.tset[tkey(int32(s), aid[t.Label], int32(t.To))] = true
				}
				dp.ntrans++
			}
			ts := dp.tau[s]
			sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
			vs := dp.vis[s]
			sort.Slice(vs, func(a, b int) bool {
				return vs[a].aid < vs[b].aid || (vs[a].aid == vs[b].aid && vs[a].to < vs[b].to)
			})
		}
		dp.key = fpKey(dp.ns, dp.ntrans, tauCnt, len(p.Alphabet()))
	}
	seen := make(map[string]bool)
	add := func(e *Elem, ok bool) {
		if !ok || e == nil || len(g.elems) >= maxElems {
			return
		}
		k := elemKey(e)
		if seen[k] {
			return
		}
		seen[k] = true
		g.elems = append(g.elems, *e)
	}
	// Seed class (a): move process 0 onto every plausible image and let
	// constraint propagation force the rest — rings yield one rotation
	// per image this way.
	for t := 1; t < m; t++ {
		if d.procs[t].key != d.procs[0].key {
			continue
		}
		add(d.try(func(c *cand) bool { return d.setPi(c, 0, int32(t)) }))
	}
	// Seed class (b): every same-class transposition with all other
	// processes pinned — interchangeable members yield one element per
	// pair. (Propagation from seed (a) only finds automorphisms moving
	// process 0.)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if d.procs[i].key != d.procs[j].key {
				continue
			}
			add(d.try(func(c *cand) bool {
				if !d.setPi(c, int32(i), int32(j)) || !d.setPi(c, int32(j), int32(i)) {
					return false
				}
				for k := 0; k < m; k++ {
					if k != i && k != j && !d.setPi(c, int32(k), int32(k)) {
						return false
					}
				}
				return true
			}))
		}
	}
	return g
}

func fpKey(ns, ntrans, ntau, nacts int) string {
	var b [16]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(ns))
	binary.LittleEndian.PutUint32(b[4:], uint32(ntrans))
	binary.LittleEndian.PutUint32(b[8:], uint32(ntau))
	binary.LittleEndian.PutUint32(b[12:], uint32(nacts))
	return string(b[:])
}

func elemKey(e *Elem) string {
	buf := make([]byte, 0, 4*len(e.Proc)*4)
	var w [4]byte
	for _, v := range e.Proc {
		binary.LittleEndian.PutUint32(w[:], uint32(v))
		buf = append(buf, w[:]...)
	}
	for _, sg := range e.State {
		for _, v := range sg {
			binary.LittleEndian.PutUint32(w[:], uint32(v))
			buf = append(buf, w[:]...)
		}
	}
	return string(buf)
}

// cand is an in-progress candidate: partial π (with inverse), partial α
// (with inverse), per-process state maps, and the queue of processes
// whose image is fixed but whose states are not yet matched.
type cand struct {
	pi, pinv    []int32
	alpha, ainv []int32
	sigma       [][]int32
	queue       []int32
}

func (d *disc) newCand() *cand {
	c := &cand{
		pi:    make([]int32, d.m),
		pinv:  make([]int32, d.m),
		alpha: make([]int32, len(d.acts)),
		ainv:  make([]int32, len(d.acts)),
		sigma: make([][]int32, d.m),
	}
	for i := range c.pi {
		c.pi[i], c.pinv[i] = -1, -1
	}
	for i := range c.alpha {
		c.alpha[i], c.ainv[i] = -1, -1
	}
	return c
}

// setPi fixes π(j)=jj, failing on conflicts or a fingerprint mismatch,
// and enqueues j for state matching.
func (d *disc) setPi(c *cand, j, jj int32) bool {
	if c.pi[j] >= 0 {
		return c.pi[j] == jj
	}
	if c.pinv[jj] >= 0 {
		return false
	}
	if d.procs[j].key != d.procs[jj].key {
		return false
	}
	c.pi[j], c.pinv[jj] = jj, j
	c.queue = append(c.queue, j)
	return true
}

func (d *disc) setAlpha(c *cand, a, b int32) bool {
	if c.alpha[a] >= 0 {
		return c.alpha[a] == b
	}
	if c.ainv[b] >= 0 {
		return false
	}
	c.alpha[a], c.ainv[b] = b, a
	return true
}

// other returns the owner of action a besides process j.
func (d *disc) other(a, j int32) int32 {
	if d.ownA[a] == j {
		return d.ownB[a]
	}
	return d.ownA[a]
}

// try grows a candidate from seed, completes unknowns with the identity,
// and verifies it exactly. A nil result means the seed admits no
// (discoverable) automorphism.
func (d *disc) try(seed func(c *cand) bool) (*Elem, bool) {
	c := d.newCand()
	if !seed(c) {
		return nil, false
	}
	for len(c.queue) > 0 {
		j := c.queue[0]
		c.queue = c.queue[1:]
		if !d.matchProc(c, j) {
			return nil, false
		}
	}
	for j := int32(0); j < int32(d.m); j++ {
		if c.pi[j] >= 0 {
			continue
		}
		if c.pinv[j] >= 0 {
			return nil, false
		}
		c.pi[j], c.pinv[j] = j, j
	}
	for a := range c.alpha {
		if c.alpha[a] >= 0 {
			continue
		}
		if c.ainv[a] >= 0 {
			return nil, false
		}
		c.alpha[a], c.ainv[a] = int32(a), int32(a)
	}
	return d.verify(c)
}

// matchProc pairs the states of process j with those of π(j) by a
// breadth-first walk from the paired starts, relabeling actions
// first-fit under the ownership constraint as it goes.
func (d *disc) matchProc(c *cand, j int32) bool {
	jj := c.pi[j]
	pj, pjj := &d.procs[j], &d.procs[jj]
	if pj.ns != pjj.ns || pj.ntrans != pjj.ntrans {
		return false
	}
	sg := make([]int32, pj.ns)
	used := make([]bool, pj.ns)
	for i := range sg {
		sg[i] = -1
	}
	c.sigma[j] = sg
	type pair struct{ s, ss int32 }
	var work []pair
	assign := func(s, ss int32) bool {
		if sg[s] >= 0 {
			return sg[s] == ss
		}
		if used[ss] {
			return false
		}
		sg[s], used[ss] = ss, true
		work = append(work, pair{s, ss})
		return true
	}
	if !assign(pj.start, pjj.start) {
		return false
	}
	for len(work) > 0 {
		pr := work[len(work)-1]
		work = work[:len(work)-1]
		s, ss := pr.s, pr.ss
		tj, tjj := pj.tau[s], pjj.tau[ss]
		if len(tj) != len(tjj) {
			return false
		}
		for i := range tj {
			if !assign(tj[i], tjj[i]) {
				return false
			}
		}
		gj := aidGroups(pj.vis[s])
		gjj := aidGroups(pjj.vis[ss])
		if len(gj) != len(gjj) {
			return false
		}
		claimed := make([]bool, len(gjj))
		for _, grp := range gj {
			a := grp.aid
			tgt := -1
			if b := c.alpha[a]; b >= 0 {
				for q := range gjj {
					if gjj[q].aid == b {
						tgt = q
						break
					}
				}
				if tgt < 0 || claimed[tgt] || gjj[tgt].hi-gjj[tgt].lo != grp.hi-grp.lo {
					return false
				}
			} else {
				for q := range gjj {
					if claimed[q] {
						continue
					}
					b := gjj[q].aid
					if c.ainv[b] >= 0 || gjj[q].hi-gjj[q].lo != grp.hi-grp.lo {
						continue
					}
					k, kk := d.other(a, j), d.other(b, jj)
					if c.pi[k] >= 0 {
						if c.pi[k] != kk {
							continue
						}
					} else if c.pinv[kk] >= 0 || d.procs[k].key != d.procs[kk].key {
						continue
					}
					tgt = q
					break
				}
				if tgt < 0 {
					return false
				}
				if !d.setAlpha(c, a, gjj[tgt].aid) {
					return false
				}
			}
			claimed[tgt] = true
			b := gjj[tgt].aid
			if !d.setPi(c, d.other(a, j), d.other(b, jj)) {
				return false
			}
			ga := pj.vis[s][grp.lo:grp.hi]
			gb := pjj.vis[ss][gjj[tgt].lo:gjj[tgt].hi]
			for i := range ga {
				if !assign(ga[i].to, gb[i].to) {
					return false
				}
			}
		}
	}
	for _, ss := range sg {
		if ss < 0 {
			return false // unreachable states: give up on this seed
		}
	}
	return true
}

type aidGroup struct {
	aid    int32
	lo, hi int
}

func aidGroups(vs []vtrans) []aidGroup {
	var out []aidGroup
	for x := 0; x < len(vs); {
		xe := x + 1
		for xe < len(vs) && vs[xe].aid == vs[x].aid {
			xe++
		}
		out = append(out, aidGroup{aid: vs[x].aid, lo: x, hi: xe})
		x = xe
	}
	return out
}

// verify checks a completed candidate exactly: ownership equivariance
// and, per process, transition-set image containment (with equal counts
// and injective maps this is set equality). Returns nil for the
// identity.
func (d *disc) verify(c *cand) (*Elem, bool) {
	for a := range d.acts {
		b := c.alpha[a]
		x, y := c.pi[d.ownA[a]], c.pi[d.ownB[a]]
		if x > y {
			x, y = y, x
		}
		if x != d.ownA[b] || y != d.ownB[b] {
			return nil, false
		}
	}
	identity := true
	for j := int32(0); j < int32(d.m); j++ {
		jj := c.pi[j]
		if jj != j {
			identity = false
		}
		pj, pjj := &d.procs[j], &d.procs[jj]
		if pj.ns != pjj.ns || pj.ntrans != pjj.ntrans {
			return nil, false
		}
		sg := c.sigma[j]
		img := func(s int32) int32 {
			if sg == nil {
				return s
			}
			return sg[s]
		}
		if img(pj.start) != pjj.start {
			return nil, false
		}
		for s := 0; s < pj.ns; s++ {
			if sg != nil && sg[s] != int32(s) {
				identity = false
			}
			for _, t := range pj.tau[s] {
				if !pjj.tset[tkey(img(int32(s)), -1, img(t))] {
					return nil, false
				}
			}
			for _, t := range pj.vis[s] {
				if !pjj.tset[tkey(img(int32(s)), c.alpha[t.aid], img(t.to))] {
					return nil, false
				}
			}
		}
	}
	if identity {
		return nil, false
	}
	e := &Elem{
		Proc:  append([]int32(nil), c.pi...),
		Inv:   append([]int32(nil), c.pinv...),
		State: make([][]int32, d.m),
		Act:   append([]int32(nil), c.alpha...),
	}
	for j := 0; j < d.m; j++ {
		if sg := c.sigma[j]; sg != nil {
			e.State[j] = append([]int32(nil), sg...)
		} else {
			id := make([]int32, d.procs[j].ns)
			for s := range id {
				id[s] = int32(s)
			}
			e.State[j] = id
		}
	}
	return e, true
}

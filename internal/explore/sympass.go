package explore

import (
	"encoding/binary"
	"fmt"

	"fspnet/internal/guard"
)

// This file holds the cyclic post-passes over the symmetry-quotiented
// joint graph. The quotient collapses a raw state and its automorphism
// images into one representative, which is sound for plain reachability
// — but the two cycle passes ask questions about which PROCESS an edge
// involves, and canonicalization relabels processes along the composed
// minimizing permutation. The passes therefore run on the j-tracking
// cover: nodes are pairs (representative, j) with j ranging over the
// orbit of the distinguished process, an edge of the quotient maps the
// tracked position j through its permutation, and an edge is classified
// (context move / P-handshake) against the tracked j rather than the
// fixed dist index.
//
// Soundness: a cycle in the cover lifts to a genuine raw cycle — walk
// the cover cycle, transporting each raw edge by the group element that
// carries the current raw state onto the representative; the tracked j
// invariant means the lifted edges keep their classification, and
// because the group is finite the lifted walk returns to its origin
// after finitely many turns around the cover cycle. Completeness: a raw
// cycle projects turn by turn onto cover edges, and by pigeonhole some
// (representative, j) pair recurs, closing a cover cycle that contains
// the projection of every edge of one full raw turn. Neither argument
// needs the canonicalization to be a consistent (true minimal-image)
// choice — only that every representative lies in its orbit.

// symGraph is the CSR adjacency of the quotient graph with the
// per-edge data the cover passes classify on: the canonical successor,
// the composed minimizing permutation (deduped; edges overwhelmingly
// share a handful of permutations), and the participating processes.
type symGraph struct {
	off   []int32
	to    []int32
	perm  []int32   // index into perms, per edge
	pa    []int16   // τ: the mover; handshake: smaller owner
	pb    []int16   // handshake: larger owner; τ: −1
	perms [][]int32 // deduped process permutations, identity first
}

// buildSymGraph materializes the quotient adjacency under pass
// "sym-adj". Successor sets of representatives are enumerated with
// expandFull and canonicalized with permutation tracking; everything is
// appended in deterministic order.
func (mc *machine) buildSymGraph(in *Interner, sy *symState, g *guard.G) (*symGraph, error) {
	if err := g.Poll("sym-adj", 0); err != nil {
		return nil, fmt.Errorf("explore: sym-adj pass: %w", err)
	}
	n := in.Len()
	sg := &symGraph{off: make([]int32, n+1)}
	ident := make([]int32, mc.m)
	for i := range ident {
		ident[i] = int32(i)
	}
	sg.perms = append(sg.perms, ident)
	permIDs := map[string]int32{permKey(ident): 0}
	cz := sy.grp.NewCanonizer()
	scratch := make([]uint32, mc.m)
	canon := make([]uint32, mc.m)
	pi := make([]int32, mc.m)
	for gid := 0; gid < n; gid++ {
		if gid > 0 && gid%pollStride == 0 {
			if err := g.Poll("sym-adj", gid/pollStride); err != nil {
				return nil, fmt.Errorf("explore: sym-adj pass: %w", err)
			}
		}
		sg.off[gid] = int32(len(sg.to))
		mc.expandFull(in.Vec(int32(gid)), scratch, func(succ []uint32, kind int, pa, pb int32) bool {
			cz.CanonPerm(succ, canon, pi)
			sg.to = append(sg.to, in.ID(canon))
			pk := permKey(pi)
			id, ok := permIDs[pk]
			if !ok {
				id = int32(len(sg.perms))
				permIDs[pk] = id
				sg.perms = append(sg.perms, append([]int32(nil), pi...))
			}
			sg.perm = append(sg.perm, id)
			sg.pa = append(sg.pa, int16(pa))
			sg.pb = append(sg.pb, int16(pb))
			return true
		})
	}
	sg.off[n] = int32(len(sg.to))
	return sg, nil
}

func permKey(pi []int32) string {
	b := make([]byte, 4*len(pi))
	for i, v := range pi {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(v))
	}
	return string(b)
}

// ctxTauCycleSym is ctxTauCycle on the j-tracking cover: a gray-path
// DFS over nodes (gid, di), following only edges whose move does not
// involve the tracked process sy.distOrbit[di]. A gray back-edge is a
// reachable silent divergence of the context. Shares the "tau-cycle"
// pass name with the unreduced variant so governor behavior lines up.
func (mc *machine) ctxTauCycleSym(sg *symGraph, sy *symState, g *guard.G) (bool, error) {
	if err := g.Poll("tau-cycle", 0); err != nil {
		return false, fmt.Errorf("explore: τ-cycle pass: %w", err)
	}
	const gray, black = 1, 2
	nd := len(sy.distOrbit)
	n := (len(sg.off) - 1) * nd
	color := make([]uint8, n)
	colored := 0
	succs := func(node int) []int32 {
		gid, di := node/nd, node%nd
		j := sy.distOrbit[di]
		var out []int32
		for e := sg.off[gid]; e < sg.off[gid+1]; e++ {
			if int32(sg.pa[e]) == j || int32(sg.pb[e]) == j {
				continue // the tracked process moves: not a context move for it
			}
			jn := sy.jIdx[sg.perms[sg.perm[e]][j]]
			out = append(out, sg.to[e]*int32(nd)+jn)
		}
		return out
	}
	type frame struct {
		node int
		succ []int32
		next int
	}
	var stack []frame
	for root := 0; root < n; root++ {
		if color[root] != 0 {
			continue
		}
		color[root] = gray
		colored++
		stack = append(stack[:0], frame{root, succs(root), 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next >= len(f.succ) {
				color[f.node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			s := int(f.succ[f.next])
			f.next++
			switch color[s] {
			case gray:
				return true, nil
			case black:
			default:
				color[s] = gray
				colored++
				if colored%pollStride == 0 {
					if err := g.Poll("tau-cycle", colored/pollStride); err != nil {
						return false, fmt.Errorf("explore: τ-cycle pass: %w", err)
					}
				}
				stack = append(stack, frame{s, succs(s), 0})
			}
		}
	}
	return false, nil
}

// handshakeCycleSym is handshakeCycle on the j-tracking cover: Tarjan
// SCCs over all cover edges, then a sweep for an edge that is a
// P-handshake for its tracked process with both cover endpoints in one
// component. Shares the "handshake-cycle" pass name with the unreduced
// variant.
func (mc *machine) handshakeCycleSym(sg *symGraph, sy *symState, g *guard.G) (bool, error) {
	if err := g.Poll("handshake-cycle", 0); err != nil {
		return false, fmt.Errorf("explore: handshake-cycle pass: %w", err)
	}
	const undef = -1
	nd := len(sy.distOrbit)
	n := (len(sg.off) - 1) * nd
	num := make([]int32, n)
	low := make([]int32, n)
	comp := make([]int32, n)
	onstack := make([]bool, n)
	for i := range num {
		num[i] = undef
		comp[i] = undef
	}
	succs := func(node int) []int32 {
		gid, di := node/nd, node%nd
		j := sy.distOrbit[di]
		out := make([]int32, 0, sg.off[gid+1]-sg.off[gid])
		for e := sg.off[gid]; e < sg.off[gid+1]; e++ {
			jn := sy.jIdx[sg.perms[sg.perm[e]][j]]
			out = append(out, sg.to[e]*int32(nd)+jn)
		}
		return out
	}
	type frame struct {
		node int
		succ []int32
		next int
	}
	var frames []frame
	var tstack []int32
	var counter int32
	for root := 0; root < n; root++ {
		if num[root] != undef {
			continue
		}
		num[root], low[root] = counter, counter
		counter++
		tstack = append(tstack, int32(root))
		onstack[root] = true
		frames = append(frames[:0], frame{root, succs(root), 0})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.next < len(f.succ) {
				s := int(f.succ[f.next])
				f.next++
				if num[s] == undef {
					num[s], low[s] = counter, counter
					counter++
					if counter%pollStride == 0 {
						if err := g.Poll("handshake-cycle", int(counter)/pollStride); err != nil {
							return false, fmt.Errorf("explore: handshake-cycle pass: %w", err)
						}
					}
					tstack = append(tstack, int32(s))
					onstack[s] = true
					frames = append(frames, frame{s, succs(s), 0})
				} else if onstack[s] && num[s] < low[f.node] {
					low[f.node] = num[s]
				}
				continue
			}
			nodeID := f.node
			frames = frames[:len(frames)-1]
			if low[nodeID] == num[nodeID] {
				for {
					t := tstack[len(tstack)-1]
					tstack = tstack[:len(tstack)-1]
					onstack[t] = false
					comp[t] = int32(nodeID)
					if int(t) == nodeID {
						break
					}
				}
			}
			if len(frames) > 0 {
				if pg := frames[len(frames)-1].node; low[nodeID] < low[pg] {
					low[pg] = low[nodeID]
				}
			}
		}
	}
	for node := 0; node < n; node++ {
		if node%pollStride == 0 && node > 0 {
			if err := g.Poll("handshake-cycle", node/pollStride); err != nil {
				return false, fmt.Errorf("explore: handshake-cycle pass: %w", err)
			}
		}
		gid, di := node/nd, node%nd
		j := sy.distOrbit[di]
		for e := sg.off[gid]; e < sg.off[gid+1]; e++ {
			if sg.pb[e] < 0 || (int32(sg.pa[e]) != j && int32(sg.pb[e]) != j) {
				continue // not a handshake of the tracked process
			}
			jn := sy.jIdx[sg.perms[sg.perm[e]][j]]
			if comp[node] == comp[sg.to[e]*int32(nd)+jn] {
				return true, nil
			}
		}
	}
	return false, nil
}

// symStatesPass sums, under pass "canon", the extra raw states each
// interned representative stands for — the per-representative orbit
// size minus one, a lower bound computed from single element
// applications (exact whenever the discovered element set is the whole
// group, as on the bundled ring and clique families).
func (mc *machine) symStatesPass(in *Interner, sy *symState, g *guard.G) (int64, error) {
	if err := g.Poll("canon", 0); err != nil {
		return 0, fmt.Errorf("explore: canon pass: %w", err)
	}
	cz := sy.grp.NewCanonizer()
	var total int64
	n := in.Len()
	for gid := 0; gid < n; gid++ {
		if gid > 0 && gid%pollStride == 0 {
			if err := g.Poll("canon", gid/pollStride); err != nil {
				return total, fmt.Errorf("explore: canon pass: %w", err)
			}
		}
		total += int64(cz.OrbitSize(in.Vec(int32(gid))) - 1)
	}
	return total, nil
}

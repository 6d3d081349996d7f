package explore

import (
	"fmt"
	"sort"

	"fspnet/internal/guard"
)

// pollStride amortizes governor polls inside the sequential passes: one
// Poll per stride of visited nodes, with the node count as the level so
// fault injection can target a specific depth of a pass.
const pollStride = 1024

// This file holds the passes that run outside the BFS: the acyclicity
// shape check (which may walk the context product on its own, before the
// joint exploration, with an Interner of its own) and the two cyclic
// post-passes over the fully interned reachable joint graph, which look
// successor ids up in the BFS's Interner. Successor sets are recomputed
// on demand via expand — the engine stores no edges.

// checkAcyclicShape enforces the Section 3 domain: the distinguished
// process and its composed context must both be acyclic. The context is
// never composed; instead, all members acyclic ⇒ the composition is
// acyclic (a composite cycle would project to a nonempty closed walk in
// some member), and otherwise a gray-path DFS over the context product
// graph looks for a composite cycle directly. That graph's moves mirror
// the composed context exactly: member τ, context-internal handshakes,
// and solo firing of P-shared actions by their single context owner
// (those stay visible in ‖, hence move the context on their own).
func (mc *machine) checkAcyclicShape(budget int, g *guard.G) error {
	if !mc.procs[mc.dist].IsAcyclic() {
		return fmt.Errorf("explore: %s is cyclic: %w", mc.procs[mc.dist].Name(), ErrShape)
	}
	all := true
	for j, p := range mc.procs {
		if j != mc.dist && !p.IsAcyclic() {
			all = false
			break
		}
	}
	if all {
		return nil
	}
	if err := g.Poll("shape", 0); err != nil {
		return fmt.Errorf("explore: shape check: %w", err)
	}
	cyclic, err := mc.ctxHasCycle(budget, g)
	if err != nil {
		return err
	}
	if cyclic {
		return fmt.Errorf("explore: context of %s is cyclic: %w", mc.procs[mc.dist].Name(), ErrShape)
	}
	return nil
}

// ctxExpand enumerates the context product moves at vec (the dist
// component is carried along frozen): context-member τ, context-internal
// handshakes, and solo moves on P-shared visible actions.
func (mc *machine) ctxExpand(vec, scratch []uint32, fn func(succ []uint32) bool) {
	mc.ctxExpandLabeled(vec, scratch, func(succ []uint32, aid int32) bool {
		return fn(succ)
	})
}

// ctxExpandLabeled is ctxExpand with the composed context's labeling:
// moves that are τ of the context (member τ, context-internal
// handshakes) report aid −1, and solo moves on P-shared actions — which
// stay visible in ‖ — report the action id.
func (mc *machine) ctxExpandLabeled(vec, scratch []uint32, fn func(succ []uint32, aid int32) bool) {
	for j := 0; j < mc.m; j++ {
		if j == mc.dist {
			continue
		}
		for _, to := range mc.tau[j][vec[j]] {
			copy(scratch, vec)
			scratch[j] = to
			if !fn(scratch, -1) {
				return
			}
		}
	}
	for j := 0; j < mc.m; j++ {
		if j == mc.dist {
			continue
		}
		ts := mc.vis[j][vec[j]]
		for x := 0; x < len(ts); {
			a := ts[x].aid
			xe := x + 1
			for xe < len(ts) && ts[xe].aid == a {
				xe++
			}
			other := int(mc.ownerA[a])
			if other == j {
				other = int(mc.ownerB[a])
			}
			switch {
			case other == mc.dist:
				for xi := x; xi < xe; xi++ {
					copy(scratch, vec)
					scratch[j] = ts[xi].to
					if !fn(scratch, int32(a)) {
						return
					}
				}
			case int(mc.ownerA[a]) == j:
				ps := mc.vis[other][vec[other]]
				lo := sort.Search(len(ps), func(i int) bool { return ps[i].aid >= a })
				for pi := lo; pi < len(ps) && ps[pi].aid == a; pi++ {
					for xi := x; xi < xe; xi++ {
						copy(scratch, vec)
						scratch[j] = ts[xi].to
						scratch[other] = ps[pi].to
						if !fn(scratch, -1) {
							return
						}
					}
				}
			}
			x = xe
		}
	}
}

// ctxHasCycle runs an iterative gray-path DFS over the context product
// graph from the start vector, reporting whether any composite cycle is
// reachable. budget bounds the visited configurations; g is polled every
// pollStride of them.
func (mc *machine) ctxHasCycle(budget int, g *guard.G) (bool, error) {
	const gray, black = 1, 2
	in := mc.newInterner()
	var color []uint8 // per id
	scratch := make([]uint32, mc.m)
	succs := func(vec []uint32) []uint32 { // flat successor vectors
		var out []uint32
		mc.ctxExpand(vec, scratch, func(succ []uint32) bool {
			out = append(out, succ...)
			return true
		})
		return out
	}
	type frame struct {
		id   int32
		succ []uint32
		next int // offset of the next successor in succ
	}
	start := mc.startVec()
	in.Intern(start)
	color = append(color, gray)
	stack := []frame{{0, succs(start), 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next >= len(f.succ) {
			color[f.id] = black
			stack = stack[:len(stack)-1]
			continue
		}
		vec := f.succ[f.next : f.next+mc.m]
		f.next += mc.m
		id, fresh := in.Intern(vec)
		if !fresh {
			if color[id] == gray {
				return true, nil
			}
			continue
		}
		seen := len(color)
		if seen >= budget {
			return false, fmt.Errorf("explore: shape check: %d context states: %w", seen, ErrBudget)
		}
		if seen%pollStride == 0 {
			if err := g.Poll("shape", seen/pollStride); err != nil {
				return false, fmt.Errorf("explore: shape check: %w", err)
			}
		}
		color = append(color, gray)
		stack = append(stack, frame{id, succs(vec), 0})
	}
	return false, nil
}

// ctxTauCycle reports whether the reachable joint graph has a cycle using
// only context moves (member τ and context-internal handshakes — the
// edges that are τ of the composed context and leave P in place). Such a
// cycle is exactly a reachable silent divergence of the context: in the
// folded composition it puts the ⊥ leaf below a reachable state, making
// the pair (p, ⊥) blocking. Call only after a complete BFS. g is polled
// at the pass boundary and every pollStride colored vectors.
func (mc *machine) ctxTauCycle(in *Interner, g *guard.G) (bool, error) {
	if err := g.Poll("tau-cycle", 0); err != nil {
		return false, fmt.Errorf("explore: τ-cycle pass: %w", err)
	}
	const gray, black = 1, 2
	n := in.Len()
	color := make([]uint8, n)
	colored := 0
	scratch := make([]uint32, mc.m)
	succs := func(gid int) []int {
		var out []int
		mc.expand(in.Vec(int32(gid)), scratch, func(succ []uint32, kind int) bool {
			if kind == moveCtxTau || kind == moveCtxHandshake {
				out = append(out, int(in.ID(succ)))
			}
			return true
		})
		return out
	}
	type frame struct {
		gid  int
		succ []int
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
				color[f.gid] = black
				stack = stack[:len(stack)-1]
				continue
			}
			s := f.succ[f.next]
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

// handshakeCycle reports whether some reachable cycle of the joint graph
// contains a P-handshake edge — equivalently (P being τ-free), whether
// Lang(P) ∩ Lang(Q) is infinite: such a cycle pumps arbitrarily long
// common words, and conversely an infinite intersection forces a repeated
// joint vector with a visible P-move between the repeats. Implemented as
// an iterative Tarjan SCC pass followed by a sweep for a P-handshake edge
// with both ends in one component. Call only after a complete BFS. g is
// polled at the pass boundary and every pollStride numbered vectors.
func (mc *machine) handshakeCycle(in *Interner, g *guard.G) (bool, error) {
	if err := g.Poll("handshake-cycle", 0); err != nil {
		return false, fmt.Errorf("explore: handshake-cycle pass: %w", err)
	}
	const undef = -1
	n := in.Len()
	num := make([]int32, n)
	low := make([]int32, n)
	comp := make([]int32, n)
	onstack := make([]bool, n)
	for i := range num {
		num[i] = undef
		comp[i] = undef
	}
	scratch := make([]uint32, mc.m)
	succs := func(gid int) []int {
		var out []int
		mc.expand(in.Vec(int32(gid)), scratch, func(succ []uint32, kind int) bool {
			out = append(out, int(in.ID(succ)))
			return true
		})
		return out
	}
	type frame struct {
		gid  int
		succ []int
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
				s := f.succ[f.next]
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
				} else if onstack[s] && num[s] < low[f.gid] {
					low[f.gid] = num[s]
				}
				continue
			}
			g := f.gid
			frames = frames[:len(frames)-1]
			if low[g] == num[g] {
				for {
					t := tstack[len(tstack)-1]
					tstack = tstack[:len(tstack)-1]
					onstack[t] = false
					comp[t] = int32(g)
					if int(t) == g {
						break
					}
				}
			}
			if len(frames) > 0 {
				if pg := frames[len(frames)-1].gid; low[g] < low[pg] {
					low[pg] = low[g]
				}
			}
		}
	}
	found := false
	for gid := 0; gid < n && !found; gid++ {
		if gid%pollStride == 0 && gid > 0 {
			if err := g.Poll("handshake-cycle", gid/pollStride); err != nil {
				return false, fmt.Errorf("explore: handshake-cycle pass: %w", err)
			}
		}
		mc.expand(in.Vec(int32(gid)), scratch, func(succ []uint32, kind int) bool {
			if kind == moveDistHandshake && comp[gid] == comp[in.ID(succ)] {
				found = true
				return false
			}
			return true
		})
	}
	return found, nil
}

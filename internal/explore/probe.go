package explore

import (
	"fmt"

	"fspnet/internal/guard"
)

// This file holds the bounded witness probes of the cyclic analysis.
// Both cyclic predicates have one polarity that a small witness decides:
//
//	¬S_u — a reachable context-move cycle (silent divergence, m ≥ 3), or
//	        a reachable vector with no joint move at all (blocking);
//	 S_c — a reachable cycle containing a P-handshake edge.
//
// On the fully symmetric families those witnesses sit within a handful
// of moves of the start (one philosopher's eat cycle), while the raw
// joint space is astronomically large — so a deterministic depth-first
// probe with a small node budget decides philosophers20 instantly where
// even the quotiented exhaustive BFS could not finish. The probes walk
// the RAW space (no canonicalization), so their witnesses are genuine
// runs and need no symmetry soundness argument. A probe that exhausts
// its budget decides nothing and the exhaustive passes take over.

// probeBudget bounds the visited vectors of each probe walk.
const probeBudget = 4096

// probeResult carries what the probes decided. Only the witnessed
// polarities can ever be set; the opposite polarities need exhaustion.
type probeResult struct {
	states  int  // raw vectors visited across both walks
	suFalse bool // ¬S_u witnessed
	scTrue  bool // S_c witnessed
}

// probeCyclic runs the two witness walks under pass "probe". It never
// decides S_u = true or S_c = false. Deterministic: fixed expansion
// order, fixed budget, no parallelism.
func (mc *machine) probeCyclic(needSu, needSc bool, g *guard.G) (probeResult, error) {
	var pr probeResult
	if err := g.Poll("probe", 0); err != nil {
		return pr, fmt.Errorf("explore: probe pass: %w", err)
	}
	// Walk 1: gray-path DFS over context moves only. A back-edge is a
	// reachable silent divergence of the context — the ⊥ rule, which only
	// applies when the context is a real composition (m ≥ 3).
	if needSu && mc.m >= 3 {
		if err := mc.probeCtxCycle(&pr, g); err != nil {
			return pr, err
		}
	}
	// Walk 2: gray-path DFS over the full joint relation. Every back-edge
	// closes a stack cycle that either contains a P-handshake edge (an
	// S_c witness) or consists of context moves alone (¬S_u when m ≥ 3);
	// a moveless vector on the way is a blocking ¬S_u witness.
	if (needSc && !pr.scTrue) || (needSu && !pr.suFalse) {
		if err := mc.probeFullCycle(needSu, needSc, &pr, g); err != nil {
			return pr, err
		}
	}
	return pr, nil
}

// probePoll polls the governor every pollStride visited vectors.
func probePoll(g *guard.G, visited int) error {
	if visited%pollStride != 0 {
		return nil
	}
	if err := g.Poll("probe", visited/pollStride); err != nil {
		return fmt.Errorf("explore: probe pass: %w", err)
	}
	return nil
}

// probeCtxCycle looks for a context-move cycle reachable from the start.
func (mc *machine) probeCtxCycle(pr *probeResult, g *guard.G) error {
	const black = -2
	in := mc.newInterner()
	var depth []int32 // per id: gray depth, or black
	scratch := make([]uint32, mc.m)
	succs := func(vec []uint32) []uint32 { // flat successor vectors
		var out []uint32
		mc.expand(vec, scratch, func(succ []uint32, kind int) bool {
			if kind == moveCtxTau || kind == moveCtxHandshake {
				out = append(out, succ...)
			}
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
	depth = append(depth, 0)
	pr.states++
	stack := []frame{{0, succs(start), 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next >= len(f.succ) {
			depth[f.id] = black
			stack = stack[:len(stack)-1]
			continue
		}
		vec := f.succ[f.next : f.next+mc.m]
		f.next += mc.m
		id, fresh := in.Intern(vec)
		if !fresh {
			if depth[id] >= 0 {
				pr.suFalse = true
				return nil
			}
			continue
		}
		if len(depth) >= probeBudget {
			return nil // budget spent without a witness: undecided
		}
		pr.states++
		if err := probePoll(g, len(depth)); err != nil {
			return err
		}
		depth = append(depth, int32(len(stack)))
		stack = append(stack, frame{id, succs(vec), 0})
	}
	return nil
}

// probeFullCycle walks the full joint relation, classifying every
// back-edge by whether the stack cycle it closes contains a P-handshake
// edge — tracked as the deepest stack frame entered over one (hsDepth).
func (mc *machine) probeFullCycle(needSu, needSc bool, pr *probeResult, g *guard.G) error {
	const black = -2
	in := mc.newInterner()
	var depth []int32 // per id: gray depth, or black
	scratch := make([]uint32, mc.m)
	// succs returns the flat successor vectors of vec, which of those
	// edges are P-handshakes, and whether vec has any move at all.
	succs := func(vec []uint32) ([]uint32, []bool, bool) {
		var out []uint32
		var hs []bool
		moved := mc.expand(vec, scratch, func(succ []uint32, kind int) bool {
			out = append(out, succ...)
			hs = append(hs, kind == moveDistHandshake)
			return true
		})
		return out, hs, moved
	}
	type frame struct {
		id   int32
		succ []uint32
		hs   []bool
		next int // index of the next successor
		// hsDepth is the deepest frame index ≤ this one whose incoming
		// edge is a P-handshake (−1: none on the path). A back-edge from
		// this frame to gray depth d closes a cycle containing a
		// P-handshake iff the closing edge is one or hsDepth > d.
		hsDepth int32
	}
	done := func() bool {
		return (!needSu || pr.suFalse) && (!needSc || pr.scTrue)
	}
	start := mc.startVec()
	in.Intern(start)
	depth = append(depth, 0)
	pr.states++
	ss, hs, moved := succs(start)
	if !moved {
		pr.suFalse = true // the start itself is a blocking vector
		if done() {
			return nil
		}
	}
	stack := []frame{{id: 0, succ: ss, hs: hs, hsDepth: -1}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next >= len(f.hs) {
			depth[f.id] = black
			stack = stack[:len(stack)-1]
			continue
		}
		vec := f.succ[f.next*mc.m : (f.next+1)*mc.m]
		eHS := f.hs[f.next]
		f.next++
		id, fresh := in.Intern(vec)
		if !fresh {
			if d := depth[id]; d >= 0 {
				if eHS || f.hsDepth > d {
					pr.scTrue = true
				} else if mc.m >= 3 {
					// No P-handshake anywhere on the cycle, and P is τ-free,
					// so every edge of it is a context move: silent divergence.
					pr.suFalse = true
				}
				if done() {
					return nil
				}
			}
			continue
		}
		if len(depth) >= probeBudget {
			return nil
		}
		pr.states++
		if err := probePoll(g, len(depth)); err != nil {
			return err
		}
		hsd := f.hsDepth
		if eHS {
			hsd = int32(len(stack))
		}
		depth = append(depth, int32(len(stack)))
		ss, hs, moved := succs(vec)
		if !moved {
			pr.suFalse = true // a blocking vector
			if done() {
				return nil
			}
		}
		stack = append(stack, frame{id: id, succ: ss, hs: hs, hsDepth: hsd})
	}
	return nil
}

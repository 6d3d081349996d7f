package belief

import (
	"fmt"

	"fspnet/internal/explore"
	"fspnet/internal/guard"
)

// The cyclic belief game has one polarity a small raw witness decides:
// S_a = false. The start position (P's start state, τ-closure of the
// context start) dies outright when
//
//   - P starts at a leaf (the cyclic game demands infinite play);
//   - the context can silently diverge from its start (m ≥ 3): the
//     synthetic ⊥ then sits in the start belief and blocks every
//     proposal; or
//   - the start closure contains a stable context state offering none
//     of P's start actions: the adversary steers there and stops.
//
// All three witnesses live inside the τ-closure of the context start —
// on the symmetric ring families a handful of vectors deep, while the
// full reachable context is astronomically large. probeCtx therefore
// walks that closure depth-first on RAW vectors (no canonicalization,
// so witnesses are genuine runs) under a small node budget, before any
// context enumeration. It never decides S_a = true; a probe that
// exhausts its budget decides nothing and the exhaustive engine takes
// over.

// ctxProbeBudget bounds the context vectors one probe walk visits.
const ctxProbeBudget = 4096

// ctxProbeResult carries what the probe decided.
type ctxProbeResult struct {
	states  int  // raw context vectors visited
	saFalse bool // S_a = false witnessed
}

// probeCtx runs the witness walk under pass "probe". Deterministic:
// fixed expansion order, fixed budget, no parallelism. It walks the
// vectors through explore's Interner the way explore's own probes do:
// frames hold their successors flat, and a successor is interned when
// the walk reaches it.
func probeCtx(M *explore.Machine, g *guard.G) (ctxProbeResult, error) {
	var pr ctxProbeResult
	if err := g.Poll("probe", 0); err != nil {
		return pr, g.Limit(fmt.Errorf("belief: probe stopped: %w", err),
			guard.Partial{Pass: "probe"})
	}
	pstart := uint32(M.DistStart())
	if M.DistLeaf(pstart) {
		pr.saFalse = true
		return pr, nil
	}
	var pacts []int32
	for _, t := range M.DistMoves(pstart) {
		if len(pacts) == 0 || pacts[len(pacts)-1] != t.Aid {
			pacts = append(pacts, t.Aid)
		}
	}
	m := M.NumProcs()
	const black = -2
	in := explore.NewInterner(M)
	var depth []int32 // per id: gray depth, or black
	scratch := make([]uint32, m)
	type frame struct {
		id   int32
		succ []uint32 // flat τ-successor vectors
		next int      // offset of the next successor in succ
	}
	// enter expands one vector's context moves into a frame; it reports
	// false when the vector is stable and offers none of P's start
	// actions — a refusing stable state in the start closure.
	enter := func(id int32, vec []uint32) (frame, bool) {
		f := frame{id: id}
		offered, stable := false, true
		M.CtxMoves(vec, scratch, func(succ []uint32, aid int32) bool {
			if aid < 0 {
				stable = false
				f.succ = append(f.succ, succ...)
				return true
			}
			for _, a := range pacts {
				if a == aid {
					offered = true
					break
				}
			}
			return true
		})
		if stable && !offered {
			pr.saFalse = true
			return f, false
		}
		return f, true
	}
	start := M.StartVec()
	in.Intern(start)
	depth = append(depth, 0)
	pr.states++
	f, ok := enter(0, start)
	if !ok {
		return pr, nil
	}
	stack := []frame{f}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next >= len(f.succ) {
			depth[f.id] = black
			stack = stack[:len(stack)-1]
			continue
		}
		vec := f.succ[f.next : f.next+m]
		f.next += m
		id, fresh := in.Intern(vec)
		if !fresh {
			// A gray successor closes a context-τ cycle reachable from the
			// start via τ-moves: the start state is silently divergent.
			// ComposeAllCyclic inserts ⊥ only when the context really
			// composes (m ≥ 3).
			if depth[id] >= 0 && m >= 3 {
				pr.saFalse = true
				return pr, nil
			}
			continue
		}
		if len(depth) >= ctxProbeBudget {
			return pr, nil // budget spent without a witness: undecided
		}
		pr.states++
		if len(depth)%pollStride == 0 {
			if err := g.Poll("probe", len(depth)/pollStride); err != nil {
				return pr, g.Limit(
					fmt.Errorf("belief: probe stopped at %d context vectors: %w", len(depth), err),
					guard.Partial{States: pr.states, Pass: "probe"})
			}
		}
		depth = append(depth, int32(len(stack)))
		nf, ok := enter(id, vec)
		if !ok {
			return pr, nil
		}
		stack = append(stack, nf)
	}
	return pr, nil
}

package belief

import (
	"fmt"

	"fspnet/internal/explore"
	"fspnet/internal/guard"
)

// The cyclic belief game has one polarity a small witness decides:
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
// on the philosopher rings a handful of vectors deep, while the full
// reachable context is astronomically large. probeCtx therefore walks
// that closure depth-first under a small node budget, before any
// context enumeration, with explore's context-divergence walk
// (Machine.ProbeCtxDivergence) and a per-vector check for the stable
// refusing state. It never decides S_a = true; a probe that exhausts
// its budget decides nothing and the exhaustive engine takes over.

// ctxProbeResult carries what the probe decided.
type ctxProbeResult struct {
	states  int  // context vectors visited
	saFalse bool // S_a = false witnessed
}

// probeCtx runs the witness walk under pass "probe". Deterministic:
// fixed expansion order, fixed budget.
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
	scratch := make([]uint32, M.NumProcs())
	// refuses reports whether a stable vector offers none of P's start
	// actions: the adversary can steer there and stop the game.
	refuses := func(vec []uint32) bool {
		offered := false
		M.CtxMoves(vec, scratch, func(_ []uint32, aid int32) bool {
			for _, a := range pacts {
				if a == aid {
					offered = true
					return false
				}
			}
			return true
		})
		return !offered
	}
	cp, err := M.ProbeCtxDivergence(g, func(vec []uint32, stable bool) bool {
		if stable && refuses(vec) {
			pr.saFalse = true
			return false
		}
		return true
	})
	pr.states = cp.States
	if err != nil {
		return pr, g.Limit(
			fmt.Errorf("belief: probe stopped at %d context vectors: %w", cp.States, err),
			guard.Partial{States: pr.states, Pass: "probe"})
	}
	// A context τ-cycle reachable from the start via τ-moves puts the
	// synthetic ⊥ in the start belief (ComposeAllCyclic inserts ⊥ only
	// when the context really composes, which the walk checks).
	if cp.Diverges {
		pr.saFalse = true
	}
	return pr, nil
}

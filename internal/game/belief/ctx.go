package belief

import (
	"fmt"

	"fspnet/internal/explore"
	"fspnet/internal/game"
	"fspnet/internal/symred"
)

// visMove is one visible context move, compiled to a dense action id and
// a dense context-state id.
type visMove struct {
	aid int32
	to  int32
}

// ctxGraph is the enumerated reachable context: exactly the transition
// system of the composed context Q, with states as dense ids over the
// interned reachable vectors. tau holds Q's τ-moves (member τ and
// context-internal handshakes), vis its visible moves (solo firings of
// P-shared actions). Under the cyclic semantics a synthetic divergence
// leaf ⊥ (id bot) is appended, with a τ-edge from every state that can
// reach a context-τ cycle via context-τ moves.
type ctxGraph struct {
	n      int // reachable context vectors, excluding ⊥
	bot    int32
	tau    [][]int32
	vis    [][]visMove // sorted by (aid, to)
	offers [][]int32   // sorted unique aids offered, per state
	stable []bool      // no τ-move (before the ⊥ edge; divergent states are never stable)
}

// size returns the number of context states including ⊥ when present.
func (cg *ctxGraph) size() int {
	if cg.bot >= 0 {
		return cg.n + 1
	}
	return cg.n
}

// words returns the belief-bitset width in 64-bit words.
func (cg *ctxGraph) words() int { return (cg.size() + 63) / 64 }

// buildCtx runs the context passes: "ctx-bfs" enumerates the reachable
// context vectors while recording every move it sees, "ctx-adj" lays
// the recorded edges out as the dense adjacency, and — under the cyclic
// semantics, when the context has at least two members — "ctx-scc"
// finds the silently divergent states and appends the synthetic ⊥.
// Returns the graph and the dense id of the context start vector
// (always 0: the start is interned first).
//
// Recording edges during the BFS is the engine's hot-path optimization:
// re-enumerating CtxMoves for every state and re-hashing every successor
// in a separate adjacency pass roughly doubles context-build time —
// which dominates ring-shaped instances whose game proper is tiny. The
// walk interns through explore's Interner, whose ids are dense in
// discovery order, so the recorded edges are already dense and the
// adjacency build is hash-free.
func (sv *solver) buildCtx(cyclic bool) (*ctxGraph, int32, error) {
	M := sv.M
	m := M.NumProcs()
	ci := explore.NewInterner(M)
	scratch := make([]uint32, m)
	// With a nontrivial dist-stabilizer subgroup the BFS interns orbit
	// representatives instead of raw vectors. Every element of the
	// subgroup fixes the distinguished process and acts as the identity
	// on its alphabet, so orbit members are strongly bisimilar context
	// states with identical visible labels, stability, and offers: the
	// quotient graph induces the same belief game. Successors are
	// canonicalized before interning, which is the only change — the
	// adjacency, divergence, and belief passes all run on the quotient
	// unmodified.
	var cz *symred.Canonizer
	var canon []uint32
	if sv.grp != nil {
		cz = sv.grp.NewCanonizer()
		canon = make([]uint32, m)
	}
	start := M.StartVec()
	if cz != nil {
		// Automorphisms fix component starts, so this is the identity;
		// keep the single enforcement point for "interned ⇒ canonical".
		cz.Canon(start, canon)
		start = canon
	}
	ci.Intern(start)
	sv.stats.CtxStates = 1
	// One edge run per expanded state — states are expanded in id order,
	// so degs[s] moves of state s sit flat in tos/aids after those of
	// s-1 (aid −1 = context-τ).
	var (
		degs []int32
		tos  []int32
		aids []int32
	)
	frontier := []int32{0}
	depth := 0
	for len(frontier) > 0 {
		if err := sv.g.Poll("ctx-bfs", depth); err != nil {
			return nil, 0, sv.limit(fmt.Errorf("belief: context BFS stopped at level %d: %w", depth, err),
				"ctx-bfs", sv.stats.CtxStates)
		}
		if sv.stats.CtxStates > sv.budget {
			return nil, 0, sv.limit(fmt.Errorf("belief: %d context states: %w", sv.stats.CtxStates, game.ErrBudget),
				"ctx-bfs", sv.stats.CtxStates)
		}
		var next []int32
		fresh := 0
		for _, src := range frontier {
			deg := int32(0)
			M.CtxMoves(ci.Vec(src), scratch, func(succ []uint32, aid int32) bool {
				if cz != nil {
					if cz.Canon(succ, canon) {
						sv.stats.SymHits++
					}
					succ = canon
				}
				id, isFresh := ci.Intern(succ)
				if isFresh {
					fresh++
					next = append(next, id)
				}
				tos = append(tos, id)
				aids = append(aids, aid)
				deg++
				return true
			})
			degs = append(degs, deg)
		}
		sv.stats.CtxStates += fresh
		frontier = next
		depth++
		if err := sv.g.Charge(fresh); err != nil {
			return nil, 0, sv.limit(fmt.Errorf("belief: %d context states: %w", sv.stats.CtxStates, err),
				"ctx-bfs", sv.stats.CtxStates)
		}
	}
	cg := &ctxGraph{n: len(degs), bot: -1}
	if err := sv.buildAdj(cg, degs, tos, aids); err != nil {
		return nil, 0, err
	}
	// The divergence rule applies only when the context actually composes
	// (≥ 2 members): ComposeAllCyclic adds no ⊥ to a single raw member.
	if cyclic && m >= 3 {
		if err := sv.addDivergenceBot(cg); err != nil {
			return nil, 0, err
		}
	}
	return cg, 0, nil
}

// buildAdj is the "ctx-adj" pass: it lays the per-state τ / visible
// adjacency out in two flat arrays from the BFS's recorded edge runs,
// then sorts, deduplicates, and derives offers/stable per state.
func (sv *solver) buildAdj(cg *ctxGraph, degs, tos, aids []int32) error {
	n := cg.n
	cg.tau = make([][]int32, n)
	cg.vis = make([][]visMove, n)
	cg.offers = make([][]int32, n)
	cg.stable = make([]bool, n)
	tauCnt := make([]int32, n)
	visCnt := make([]int32, n)
	pos := 0
	for s := 0; s < n; s++ {
		for k := int32(0); k < degs[s]; k++ {
			if aids[pos] < 0 {
				tauCnt[s]++
			} else {
				visCnt[s]++
			}
			pos++
		}
	}
	tauOff := make([]int32, n+1)
	visOff := make([]int32, n+1)
	for s := 0; s < n; s++ {
		tauOff[s+1] = tauOff[s] + tauCnt[s]
		visOff[s+1] = visOff[s] + visCnt[s]
	}
	tauFlat := make([]int32, tauOff[n])
	visFlat := make([]visMove, visOff[n])
	pos = 0
	for s := 0; s < n; s++ {
		tc, vc := tauOff[s], visOff[s]
		for k := int32(0); k < degs[s]; k++ {
			if aids[pos] < 0 {
				tauFlat[tc] = tos[pos]
				tc++
			} else {
				visFlat[vc] = visMove{aid: aids[pos], to: tos[pos]}
				vc++
			}
			pos++
		}
	}
	for s := 0; s < n; s++ {
		if err := sv.poll("ctx-adj", s); err != nil {
			return err
		}
		// The three-index slices pin each state's capacity to its own run:
		// addDivergenceBot appends the ⊥ edge to cg.tau[s] afterwards, and
		// an append growing into the flat array would overwrite the next
		// state's edges.
		cg.tau[s] = sortDedup32(tauFlat[tauOff[s]:tauOff[s+1]:tauOff[s+1]])
		vm := sortDedupVis(visFlat[visOff[s]:visOff[s+1]:visOff[s+1]])
		cg.vis[s] = vm
		var offers []int32
		for _, t := range vm {
			if len(offers) == 0 || offers[len(offers)-1] != t.aid {
				offers = append(offers, t.aid)
			}
		}
		cg.offers[s] = offers
		cg.stable[s] = len(cg.tau[s]) == 0
	}
	return nil
}

// addDivergenceBot runs the "ctx-scc" pass: an iterative Tarjan SCC
// decomposition of the context-τ subgraph finds the states on τ-cycles
// (component of size > 1, or a τ self-loop), and a backward sweep over
// the τ-edges closes them under "can reach". When any state is
// divergent, the synthetic ⊥ is appended and each divergent state gets a
// τ-edge to it — the flat image of the fold's divergence leaves.
func (sv *solver) addDivergenceBot(cg *ctxGraph) error {
	if err := sv.g.Poll("ctx-scc", 0); err != nil {
		return sv.limit(fmt.Errorf("belief: divergence pass: %w", err), "ctx-scc", sv.stats.CtxStates)
	}
	n := cg.n
	const undef = -1
	num := make([]int32, n)
	low := make([]int32, n)
	comp := make([]int32, n)
	onstack := make([]bool, n)
	compSize := make([]int32, n)
	for i := range num {
		num[i] = undef
		comp[i] = undef
	}
	type frame struct {
		gid  int32
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
		frames = append(frames[:0], frame{gid: int32(root)})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.next < len(cg.tau[f.gid]) {
				s := cg.tau[f.gid][f.next]
				f.next++
				if num[s] == undef {
					num[s], low[s] = counter, counter
					counter++
					if err := sv.poll("ctx-scc", int(counter)); err != nil {
						return err
					}
					tstack = append(tstack, s)
					onstack[s] = true
					frames = append(frames, frame{gid: s})
				} else if onstack[s] && num[s] < low[f.gid] {
					low[f.gid] = num[s]
				}
				continue
			}
			g := f.gid
			frames = frames[:len(frames)-1]
			if low[g] == num[g] {
				var size int32
				for {
					t := tstack[len(tstack)-1]
					tstack = tstack[:len(tstack)-1]
					onstack[t] = false
					comp[t] = g
					size++
					if t == g {
						break
					}
				}
				compSize[g] = size
			}
			if len(frames) > 0 {
				if pg := frames[len(frames)-1].gid; low[g] < low[pg] {
					low[pg] = low[g]
				}
			}
		}
	}
	divergent := make([]bool, n)
	any := false
	for s := 0; s < n; s++ {
		if compSize[comp[s]] > 1 {
			divergent[s] = true
			any = true
			continue
		}
		for _, t := range cg.tau[s] {
			if t == int32(s) {
				divergent[s] = true
				any = true
				break
			}
		}
	}
	if !any {
		return nil
	}
	// Backward propagation: a state with a τ-edge into a divergent state
	// is divergent. Process over the reversed τ-edges with a worklist.
	rev := make([][]int32, n)
	for s := 0; s < n; s++ {
		for _, t := range cg.tau[s] {
			rev[t] = append(rev[t], int32(s))
		}
	}
	var work []int32
	for s := 0; s < n; s++ {
		if divergent[s] {
			work = append(work, int32(s))
		}
	}
	//fsplint:ignore guardpoll bounded by the context τ-graph: each state enters work at most once, guarded by the divergent flag
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range rev[d] {
			if !divergent[s] {
				divergent[s] = true
				work = append(work, s)
			}
		}
	}
	cg.bot = int32(n)
	cg.tau = append(cg.tau, nil)
	cg.vis = append(cg.vis, nil)
	cg.offers = append(cg.offers, nil)
	cg.stable = append(cg.stable, true)
	sv.stats.CtxStates++
	for s := 0; s < n; s++ {
		if divergent[s] {
			cg.tau[s] = append(cg.tau[s], cg.bot)
		}
	}
	return nil
}

// sortDedup32 sorts xs and removes duplicates in place. Per-state move
// lists are tiny (a handful of entries), so insertion sort beats the
// reflection-based sort.Slice by a wide margin on the hot path.
func sortDedup32(xs []int32) []int32 {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > x {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
	w := 0
	for i, x := range xs {
		if i == 0 || x != xs[w-1] {
			xs[w] = x
			w++
		}
	}
	return xs[:w]
}

// sortDedupVis sorts visible moves by (aid, to) and removes duplicates
// in place, insertion-sort style like sortDedup32.
func sortDedupVis(vm []visMove) []visMove {
	for i := 1; i < len(vm); i++ {
		x := vm[i]
		j := i - 1
		for j >= 0 && (vm[j].aid > x.aid || (vm[j].aid == x.aid && vm[j].to > x.to)) {
			vm[j+1] = vm[j]
			j--
		}
		vm[j+1] = x
	}
	w := 0
	for i, t := range vm {
		if i == 0 || t != vm[w-1] {
			vm[w] = t
			w++
		}
	}
	return vm[:w]
}

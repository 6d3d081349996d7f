package belief

import (
	"fmt"

	"fspnet/internal/explore"
	"fspnet/internal/game"
)

// visMove is one visible context move, compiled to a dense action id and
// a dense context-state id.
type visMove struct {
	aid int32
	to  int32
}

// ctxGraph is the part of the composed context Q that P can observe:
// the context states jointly reachable with some P-state, as dense ids
// over their interned vectors. tau holds their τ-moves (member τ and
// context-internal handshakes), vis their moves on P-shared actions that
// some P-state paired with them can follow. Under the cyclic semantics a
// synthetic divergence leaf ⊥ (id bot) is appended, with a τ-edge from
// every state that can reach a context-τ cycle via context-τ moves.
type ctxGraph struct {
	n      int // context vectors, excluding ⊥
	bot    int32
	tau    [][]int32
	vis    [][]visMove // sorted by (aid, to)
	offers [][]int32   // sorted unique aids of vis, per state
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

// buildCtx runs the context passes: "ctx-bfs" walks the context in
// lockstep with P while recording every move it keeps, "ctx-adj" lays
// the recorded edges out as the dense adjacency, and — under the cyclic
// semantics, when the context has at least two members — "ctx-scc"
// finds the silently divergent states and appends the synthetic ⊥.
// Returns the graph and the dense id of the context start vector
// (always 0: the start is interned first).
//
// The walk visits (P-state, context id) pairs. A belief of position
// (p, B) holds only context states q with (p, q) jointly reachable, so
// no other context state can ever enter a belief. A context τ-move keeps
// p; a move on a P-shared action a is followed along each of P's own
// a-moves p → p′, and a move p cannot follow is dropped before it is
// interned. Each context id carries a bitmask of the
// P-states it has been paired with, so every pair expands once. The
// kept states are closed under context τ, and a state paired with p has
// all its moves on p's actions recorded — all that step and blocked
// read of it — so every belief is the same set of vectors it would be
// over Q's whole reachable space, under other ids.
//
// Recording edges during the walk keeps it the only pass that
// enumerates CtxMoves and hashes successors. The walk interns through
// explore's Interner, whose ids are dense in discovery order, so the
// recorded edges are already dense and the adjacency build is hash-free.
func (sv *solver) buildCtx(cyclic bool) (*ctxGraph, int32, error) {
	M := sv.M
	m := M.NumProcs()
	ci := explore.NewInterner(M)
	scratch := make([]uint32, m)
	ci.Intern(M.StartVec())
	sv.stats.CtxStates = 1
	// seen[c*pw:(c+1)*pw] is the bitmask of P-states paired with context
	// id c so far; a pair enters the next frontier when its bit is set.
	pw := (M.NumDistStates() + 63) / 64
	zero := make([]uint64, pw)
	seen := make([]uint64, pw)
	type pair struct {
		p uint32
		c int32
	}
	var frontier, next []pair
	visit := func(p uint32, c int32) {
		w, bit := int(c)*pw+int(p>>6), uint64(1)<<(p&63)
		if seen[w]&bit == 0 {
			seen[w] |= bit
			next = append(next, pair{p: p, c: c})
		}
	}
	visit(M.DistStart(), 0)
	// Every kept move as a (src, to, aid) triple, aid −1 for context-τ;
	// buildAdj groups them by src.
	var srcs, tos, aids []int32
	for depth := 0; len(next) > 0; depth++ {
		if err := sv.g.Poll("ctx-bfs", depth); err != nil {
			return nil, 0, sv.limit(fmt.Errorf("belief: context BFS stopped at level %d: %w", depth, err),
				"ctx-bfs", sv.stats.CtxStates)
		}
		if sv.stats.CtxStates > sv.budget {
			return nil, 0, sv.limit(fmt.Errorf("belief: %d context states: %w", sv.stats.CtxStates, game.ErrBudget),
				"ctx-bfs", sv.stats.CtxStates)
		}
		frontier, next = next, frontier[:0]
		fresh := 0
		for _, pc := range frontier {
			M.CtxMoves(ci.Vec(pc.c), scratch, func(succ []uint32, aid int32) bool {
				var follow []explore.VisMove // P's aid-moves from pc.p; none for τ
				if aid >= 0 {
					lo, hi := sv.succRange(pc.p, aid)
					if lo == hi {
						return true // P cannot take part: no joint run makes this move
					}
					follow = sv.pvis[pc.p][lo:hi]
				}
				id, isFresh := ci.Intern(succ)
				if isFresh {
					fresh++
					seen = append(seen, zero...)
				}
				srcs = append(srcs, pc.c)
				tos = append(tos, id)
				aids = append(aids, aid)
				if aid < 0 {
					visit(pc.p, id)
				}
				for _, t := range follow {
					visit(t.To, id)
				}
				return true
			})
		}
		sv.stats.CtxStates += fresh
		if err := sv.g.Charge(fresh); err != nil {
			return nil, 0, sv.limit(fmt.Errorf("belief: %d context states: %w", sv.stats.CtxStates, err),
				"ctx-bfs", sv.stats.CtxStates)
		}
	}
	cg := &ctxGraph{n: ci.Len(), bot: -1}
	if err := sv.buildAdj(cg, srcs, tos, aids); err != nil {
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

// buildAdj is the "ctx-adj" pass: it counting-sorts the walk's recorded
// (src, to, aid) edges by src into flat τ and visible arrays, then
// sorts and deduplicates each state's run — a state paired with several
// P-states was expanded once per pairing — and derives offers and
// stability per state. Every per-state slice is a three-index subslice
// of one flat array, so no state costs an allocation of its own.
func (sv *solver) buildAdj(cg *ctxGraph, srcs, tos, aids []int32) error {
	n := cg.n
	tauOff := make([]int32, n+1)
	visOff := make([]int32, n+1)
	for k, s := range srcs {
		if aids[k] < 0 {
			tauOff[s+1]++
		} else {
			visOff[s+1]++
		}
	}
	for s := 0; s < n; s++ {
		tauOff[s+1] += tauOff[s]
		visOff[s+1] += visOff[s]
	}
	tauFlat := make([]int32, tauOff[n])
	visFlat := make([]visMove, visOff[n])
	tauPos := append([]int32(nil), tauOff[:n]...)
	visPos := append([]int32(nil), visOff[:n]...)
	for k, s := range srcs {
		if aids[k] < 0 {
			tauFlat[tauPos[s]] = tos[k]
			tauPos[s]++
		} else {
			visFlat[visPos[s]] = visMove{aid: aids[k], to: tos[k]}
			visPos[s]++
		}
	}
	offerFlat := make([]int32, visOff[n])
	cg.tau = make([][]int32, n)
	cg.vis = make([][]visMove, n)
	cg.offers = make([][]int32, n)
	cg.stable = make([]bool, n)
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
		lo, hi := visOff[s], visOff[s]
		for _, t := range vm {
			if hi == lo || offerFlat[hi-1] != t.aid {
				offerFlat[hi] = t.aid
				hi++
			}
		}
		cg.offers[s] = offerFlat[lo:hi:hi]
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

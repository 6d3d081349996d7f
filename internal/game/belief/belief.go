// Package belief is the compose-free S_a engine: it solves Game(P, Q) of
// Figure 4 directly against the network context as joint state vectors,
// never materializing the composed context Q via ‖.
//
// The context a distinguished process plays against is itself a network
// — the remaining m−1 components — and the game's belief sets range over
// the states Q could have reached on the trail P has observed. A context
// state can therefore enter a belief only if it is jointly reachable
// with some P-state, and the package enumerates exactly those vectors
// on the fly: a BFS over (P-state, context vector) pairs that follows a
// context move on a P-shared action only along P's own moves on it
// (reusing internal/explore's action-owner index and its sequential
// dense-id Interner, so memory is proportional to the context P can
// observe, never to Q's whole reachable space or to the intermediate
// products a ‖ fold builds). Each belief is a word-packed []uint64
// bitset over those ids. Beliefs are interned in an FNV-sharded arena
// whose equality is a memcmp of the packed words, and each (belief,
// action) step — one visible move followed by τ-closure — is computed
// once and memoized.
//
// The acyclic game is evaluated by an iterative worklist (an explicit
// DFS stack over the position DAG; P is acyclic, so positions cannot
// repeat along a play), and the Section 4 cyclic game by a greatest
// fixpoint over the same interned position graph, eliminated with
// counter-based backward propagation. Both solvers prune positions by
// subsumption against per-P-state antichains of known-winning (maximal)
// and known-losing (minimal) beliefs — wins are downward closed and
// losses upward closed in the belief, so a word-wise compare against the
// packed rows resolves a position without expansion (see antichain.go).
// The cyclic reachability sweep and fixpoint elimination optionally
// shard across worker goroutines (Tuning.Workers) with level-
// synchronized barriers that merge results in position order, so
// verdicts, statistics, and every partial verdict reported at a barrier
// are deterministic and independent of the worker count; the acyclic DFS
// is sequential.
//
// Cyclic semantics. The reference oracle folds the context with
// ComposeAllCyclic, which inserts a divergence leaf ⊥ under every
// silently diverging composite state — including states of intermediate
// fold products. On the flat context graph the engine mirrors the fold's
// observable effect with a single synthetic ⊥: one extra stable,
// action-less context state, reachable by a context-τ edge from every
// vector that can reach a context-internal-move cycle via context moves.
// A belief containing ⊥ is blocked for every P action set, exactly as a
// belief containing a fold-⊥ is. Intermediate fold products can also
// create "dead-prefix" composite states (⊥_j, t) that still offer
// visible actions; whenever such a state enters a fold-side belief, the
// prefix-divergent live state it shadows is in both beliefs and forces
// the total ⊥ into both, so the two models block the same positions and
// the verdicts agree (the differential fuzz suite pins this). Mirroring
// ComposeAllCyclic's asymmetry, a two-process network's context — one
// raw member, never composed — gets no ⊥.
package belief

import (
	"fmt"
	"runtime"

	"fspnet/internal/explore"
	"fspnet/internal/fsp"
	"fspnet/internal/game"
	"fspnet/internal/guard"
	"fspnet/internal/network"
	"fspnet/internal/symred"
)

// pollStride amortizes governor polls inside the sequential worklists:
// one Poll per stride of context states, game positions, or fixpoint
// removals, so fault injection can target a specific depth of a pass.
const pollStride = 1024

// Stats describes one belief-engine run. All fields are deterministic
// functions of the network, the distinguished process, the budget, and
// the Tuning — including across worker counts: the parallel sweep merges
// at deterministic barriers, so the same instance always reports the
// same numbers.
type Stats struct {
	CtxStates int // interned reachable context vectors (incl. the synthetic ⊥)
	Beliefs   int // interned belief bitsets
	Positions int // (P-state, belief) game positions explored (and charged)
	// AntichainHits counts successful subsumption queries: positions
	// resolved against a per-P-state win/lose antichain — without
	// expansion in the acyclic DFS, without a blocked scan in the cyclic
	// sweep.
	AntichainHits int
	// AntichainElems is the total number of antichain rows retained
	// across all P-states when the solve finished.
	AntichainElems int
	// Pruned counts position expansions the antichain avoided entirely:
	// acyclic DFS hits, each of which skips a whole subtree. Cyclic hits
	// skip only the blocked scan (the position is dead either way), so
	// they count toward AntichainHits but not Pruned.
	Pruned int
	// Workers is the resolved cyclic-sweep parallelism (1 for the
	// acyclic DFS and the sequential oracle configuration).
	Workers int
	// GroupOrder is the discovered order of the dist-stabilizer symmetry
	// subgroup the context quotient used (a lower bound from the element
	// set; 1 when symmetry is off or the subgroup is trivial).
	GroupOrder int
	// SymHits counts context successors the canonicalization moved onto a
	// different orbit representative during the context BFS.
	SymHits int
	// ProbeStates is the number of raw context vectors the cyclic witness
	// probe visited (0 when the probe is off or the game is acyclic).
	ProbeStates int
}

// Tuning selects engine variants. The zero value is the production
// default: antichain pruning on, cyclic sweep workers = GOMAXPROCS. The
// differential oracle pins Tuning{NoAntichain: true, Workers: 1} — the
// unpruned sequential engine.
type Tuning struct {
	// NoAntichain disables subsumption pruning against the per-P-state
	// win/lose antichains.
	NoAntichain bool
	// Workers shards the cyclic reachability sweep and fixpoint
	// elimination; ≤ 0 means runtime.GOMAXPROCS(0), 1 runs the sweep
	// inline. The acyclic DFS is always sequential.
	Workers int
	// NoSymmetry disables the dist-stabilizer orbit quotient of the
	// context graph. Like NoAntichain it changes only how the verdict is
	// computed, never the verdict.
	NoSymmetry bool
	// NoProbe disables the bounded cyclic witness probe that can decide
	// S_a = false from a handful of raw context vectors before the
	// context is enumerated.
	NoProbe bool
}

// workers resolves the cyclic sweep parallelism.
func (t Tuning) workers() int {
	if t.Workers > 0 {
		return t.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// SolveAcyclic decides the acyclic Game(P, Q) for process i of n, with Q
// the (never materialized) composed context: P wins iff it has a
// strategy guaranteeing it reaches one of its leaves. The verdict equals
// game.SolveAcyclic on the composed context. o.Budget bounds both the
// enumerated context states and the game positions (≤ 0 means
// game.DefaultBudget); o.Guard governs every pass.
func SolveAcyclic(n *network.Network, i int, o game.Options) (bool, Stats, error) {
	return SolveAcyclicTuned(n, i, o, Tuning{})
}

// SolveAcyclicTuned is SolveAcyclic with an explicit engine Tuning.
func SolveAcyclicTuned(n *network.Network, i int, o game.Options, t Tuning) (bool, Stats, error) {
	M, err := explore.Compile(n, i)
	if err != nil {
		return false, Stats{}, err
	}
	if err := checkP(n.Process(i)); err != nil {
		return false, Stats{}, err
	}
	if err := M.CheckAcyclicShape(budget(o), o.Guard); err != nil {
		if guard.IsLimit(err) {
			err = o.Guard.Limit(fmt.Errorf("belief: %w", err), guard.Partial{Pass: "shape"})
		}
		return false, Stats{}, err
	}
	sv, err := newSolver(M, false, o, t, distSubgroup(n, i, t))
	if err != nil {
		return false, sv.stats, err
	}
	win, err := sv.solveAcyclic()
	sv.finishStats()
	return win, sv.stats, err
}

// SolveCyclic decides the Section 4 cyclic Game(P, Q) for process i of
// n: P wins iff it can keep the game going forever against adversarial
// Q, whose silent-divergence options appear as the synthetic ⊥ state.
// The verdict equals game.SolveCyclic on the cyclically composed
// context. P must be τ-free.
func SolveCyclic(n *network.Network, i int, o game.Options) (bool, Stats, error) {
	return SolveCyclicTuned(n, i, o, Tuning{})
}

// SolveCyclicTuned is SolveCyclic with an explicit engine Tuning.
func SolveCyclicTuned(n *network.Network, i int, o game.Options, t Tuning) (bool, Stats, error) {
	M, err := explore.Compile(n, i)
	if err != nil {
		return false, Stats{}, err
	}
	if err := checkP(n.Process(i)); err != nil {
		return false, Stats{}, err
	}
	grp := distSubgroup(n, i, t)
	order := 1
	if grp != nil {
		order = grp.Order()
	}
	var probed int
	if !t.NoProbe {
		pr, perr := probeCtx(M, o.Guard)
		probed = pr.states
		if perr != nil {
			return false, Stats{GroupOrder: order, ProbeStates: probed, Workers: t.workers()}, perr
		}
		if pr.saFalse {
			// The probe's witness (reachable context divergence, a stable
			// refusing state in the start closure, or P starting at a leaf)
			// kills the start position outright; no enumeration needed.
			return false, Stats{GroupOrder: order, ProbeStates: probed, Workers: t.workers()}, nil
		}
	}
	sv, err := newSolver(M, true, o, t, grp)
	sv.stats.ProbeStates = probed
	if err != nil {
		return false, sv.stats, err
	}
	win, err := sv.solveCyclic()
	sv.finishStats()
	return win, sv.stats, err
}

// distSubgroup discovers the network's automorphism group and cuts it
// down to the elements that fix the distinguished process and every
// action it owns — the part of the symmetry the Game(P, Q) semantics
// cannot observe. Returns nil when tuning disables symmetry or the
// subgroup is trivial.
func distSubgroup(n *network.Network, i int, t Tuning) *symred.Group {
	if t.NoSymmetry {
		return nil
	}
	if g := symred.Discover(n).DistSubgroup(i); !g.Trivial() {
		return g
	}
	return nil
}

// checkP validates the Figure 4 assumption on the distinguished process,
// with the same sentinel the legacy solver reports.
func checkP(p *fsp.FSP) error {
	for _, t := range p.Transitions() {
		if t.Label == fsp.Tau {
			return fmt.Errorf("%s: %w", p.Name(), game.ErrTauMoves)
		}
	}
	return nil
}

func budget(o game.Options) int {
	if o.Budget <= 0 {
		return game.DefaultBudget
	}
	return o.Budget
}

// solver carries one run's compiled machine, context graph, belief
// arena, and P move tables. The context passes and the acyclic DFS are
// sequential; the cyclic sweep may shard across workers, each with its
// own scratch, sharing only the arena and the step memo.
type solver struct {
	M      *explore.Machine
	cg     *ctxGraph
	ar     *arena
	g      *guard.G
	budget int
	tune   Tuning
	stats  Stats

	startGid int32
	pacts    [][]int32           // per P state: sorted unique action ids
	pvis     [][]explore.VisMove // per P state: moves sorted by (aid, to)

	memo *stepTable // (belief, action) → stepped belief (−1: no offer)
	sc   *scratch   // the sequential passes' scratch

	// grp is the dist-stabilizer symmetry subgroup the context BFS
	// quotients by; nil when symmetry is off or the subgroup is trivial.
	grp *symred.Group

	// Subsumption antichains, per P state; nil when tune.NoAntichain.
	// winAC holds ⊆-maximal winning beliefs (fed by the acyclic DFS
	// only), loseAC ⊆-minimal losing beliefs (acyclic: any lost
	// position; cyclic: minimal blocked beliefs, fed at level barriers).
	winAC  []antichain
	loseAC []antichain
	// acFeeds counts antichain insertions, driving the amortized
	// "antichain" governor polls.
	acFeeds int
}

// newSolver prepares the P tables and enumerates the context graph in
// lockstep with them. A partially initialized solver (with
// barrier-accurate stats) is returned even on error so callers can
// report them.
func newSolver(M *explore.Machine, cyclic bool, o game.Options, t Tuning, grp *symred.Group) (*solver, error) {
	sv := &solver{M: M, g: o.Guard, budget: budget(o), tune: t, memo: newStepTable(), grp: grp}
	sv.stats.GroupOrder = 1
	if grp != nil {
		sv.stats.GroupOrder = grp.Order()
	}
	np := M.NumDistStates()
	sv.pvis = make([][]explore.VisMove, np)
	sv.pacts = make([][]int32, np)
	for s := 0; s < np; s++ {
		mv := M.DistMoves(uint32(s))
		sv.pvis[s] = mv
		var acts []int32
		for _, t := range mv {
			if len(acts) == 0 || acts[len(acts)-1] != t.Aid {
				acts = append(acts, t.Aid)
			}
		}
		sv.pacts[s] = acts
	}
	cg, startGid, err := sv.buildCtx(cyclic)
	if err != nil {
		return sv, err
	}
	sv.cg = cg
	sv.startGid = startGid
	sv.ar = newArena(cg.words())
	sv.sc = newScratch(cg.words())
	if !t.NoAntichain {
		sv.winAC = newAntichains(np, cg.words())
		sv.loseAC = newAntichains(np, cg.words())
	}
	return sv, nil
}

// finishStats fills the end-of-run aggregates: the interned belief count
// and the retained antichain rows.
func (sv *solver) finishStats() {
	if sv.ar != nil {
		sv.stats.Beliefs = sv.ar.size()
	}
	total := 0
	for i := range sv.winAC {
		total += sv.winAC[i].size()
	}
	for i := range sv.loseAC {
		total += sv.loseAC[i].size()
	}
	sv.stats.AntichainElems = total
}

// feedWin records a won position's belief in its P-state's win
// antichain, polling the "antichain" pass on an amortized stride.
func (sv *solver) feedWin(p uint32, bid int32) error {
	if sv.tune.NoAntichain {
		return nil
	}
	sv.winAC[p].insertMax(sv.ar.set(bid))
	err := sv.poll("antichain", sv.acFeeds)
	sv.acFeeds++
	return err
}

// feedLose is feedWin's dual for lost (or blocked) positions.
func (sv *solver) feedLose(p uint32, bid int32) error {
	if sv.tune.NoAntichain {
		return nil
	}
	sv.loseAC[p].insertMin(sv.ar.set(bid))
	err := sv.poll("antichain", sv.acFeeds)
	sv.acFeeds++
	return err
}

// limit wraps a stop reason into a *guard.LimitErr. states is the
// pass-specific progress measure (context states or game positions),
// taken at the last deterministic barrier.
func (sv *solver) limit(reason error, pass string, states int) error {
	return sv.g.Limit(reason, guard.Partial{States: states, Pass: pass})
}

// poll runs the amortized governor check for the named pass.
func (sv *solver) poll(pass string, n int) error {
	if n%pollStride != 0 {
		return nil
	}
	if err := sv.g.Poll(pass, n/pollStride); err != nil {
		return sv.limit(fmt.Errorf("belief: %s stopped at %d: %w", pass, n, err), pass, n)
	}
	return nil
}

// chargePos accounts one fresh game position against the budget and the
// governor. Call after incrementing stats.Positions.
func (sv *solver) chargePos() error {
	n := sv.stats.Positions
	if n > sv.budget {
		return sv.limit(fmt.Errorf("belief: %d positions: %w", n, game.ErrBudget), "game", n)
	}
	if err := sv.poll("game", n); err != nil {
		return err
	}
	if err := sv.g.Charge(1); err != nil {
		return sv.limit(fmt.Errorf("belief: %d positions: %w", n, err), "game", n)
	}
	return nil
}

// succRange returns the index range of P's moves on aid at state p, as
// [lo, hi) into pvis[p]. The range is empty exactly when aid ∉ pacts[p].
func (sv *solver) succRange(p uint32, aid int32) (int, int) {
	mv := sv.pvis[p]
	lo := 0
	hi := len(mv)
	for lo < hi {
		mid := (lo + hi) / 2
		if mv[mid].Aid < aid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	end := lo
	for end < len(mv) && mv[end].Aid == aid {
		end++
	}
	return lo, end
}

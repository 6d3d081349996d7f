// Package explore is an on-the-fly exploration engine for the reference
// decision procedures: it walks the joint state vectors (s_0, …, s_{m-1})
// of a closed network directly, deciding S_u and S_c under the acyclic
// (Section 3.1) and cyclic (Section 4.1) semantics without ever
// materializing the composed context via ‖.
//
// Three ingredients keep the walk cheap:
//
//   - an action-owner index, computed once per network: Definition 2 gives
//     every action exactly two owners, so each non-τ joint move is a
//     handshake between exactly two components and successor enumeration
//     never scans all m processes per action;
//   - interned state vectors: one sequential Interner packs each vector
//     into a byte key at the narrowest width its state counts allow,
//     assigns dense ids in discovery order, and owns the only copy of
//     each visited vector in one flat uint32 arena;
//   - a sequential level-by-level BFS over the reachable joint space that
//     expands states in id order, so each level's frontier is the arena
//     tail of the previous level's fresh states. Verdict bits
//     (stuck-at-leaf, stuck-off-leaf, blocked) are monotone and merged
//     only when a level completes; the governor is polled at each level's
//     head and charged at its end, so the verdict, every reported
//     statistic and every partial verdict are deterministic.
//
// The engine decides S_u and S_c only. Success in adversity S_a is a game
// of partial information whose belief sets genuinely range over the
// composed context; package success keeps using the game solver for it.
package explore

import (
	"errors"
	"fmt"
	"sort"

	"fspnet/internal/fsp"
	"fspnet/internal/guard"
	"fspnet/internal/network"
)

var (
	// ErrShape reports inputs outside a procedure's domain (cyclic
	// processes under the acyclic analysis, a τ-ful distinguished process
	// under the cyclic one).
	ErrShape = errors.New("explore: input outside procedure domain")
	// ErrBudget reports that exploration exceeded Options.MaxStates
	// interned joint vectors. It wraps guard.ErrBudget, the unified
	// budget sentinel.
	ErrBudget = fmt.Errorf("explore: joint state budget exhausted: %w", guard.ErrBudget)
)

// DefaultMaxStates bounds the interned joint vectors when
// Options.MaxStates is unset.
const DefaultMaxStates = 1 << 24

// Options configure one engine run.
type Options struct {
	// Deprecated: ignored. The BFS is sequential.
	Workers int
	// MaxStates bounds the interned joint vectors (ErrBudget beyond it);
	// ≤ 0 means DefaultMaxStates. The bound is checked at the head of
	// every BFS level, so the count at failure is deterministic.
	MaxStates int
	// Guard, when non-nil, governs the run: cancellation and deadlines
	// are polled at the head of every BFS level and at every pass
	// boundary, and each level's fresh joint states are charged against
	// its joint budget. On exhaustion the engine returns a
	// *guard.LimitErr whose partial verdict reports level-accurate stats
	// plus any predicate already decided by the monotone flags.
	Guard *guard.G
	// Tune carries the oracle switch.
	Tune Tuning
}

// Tuning selects engine variants for oracle runs. The zero value is the
// production default; a knob changes only how the verdict is computed,
// never the verdict itself.
type Tuning struct {
	// Deprecated: ignored. The engine interns every joint vector.
	NoSymmetry bool
	// NoProbe disables the bounded witness probes that can decide the
	// cyclic predicates before any exhaustive exploration: the
	// exhaustive oracle switch.
	NoProbe bool
}

// Stats describes one engine run. All fields are deterministic functions
// of the network, the distinguished process, MaxStates, and Tune.
type Stats struct {
	States      int   // interned joint vectors (peak = total; nothing is evicted)
	Depth       int   // completed BFS levels
	Moves       int64 // joint transitions enumerated
	ProbeStates int   // vectors visited by the witness probes
}

// Result carries the two engine-decided predicates and the run stats.
type Result struct {
	Su    bool // unavoidable success
	Sc    bool // success with collaboration
	Stats Stats
}

// AnalyzeAcyclic decides S_u and S_c for process i of an acyclic network
// under the Section 3.1 semantics.
func AnalyzeAcyclic(n *network.Network, i int, o Options) (Result, error) {
	return acyclic(n, i, o, true, true)
}

// UnavoidableAcyclic decides S_u alone for process i of an acyclic
// network; exploration stops as soon as the verdict is determined.
func UnavoidableAcyclic(n *network.Network, i int, o Options) (bool, Stats, error) {
	res, err := acyclic(n, i, o, true, false)
	return res.Su, res.Stats, err
}

// CollaborationAcyclic decides S_c alone for process i of an acyclic
// network.
func CollaborationAcyclic(n *network.Network, i int, o Options) (bool, Stats, error) {
	res, err := acyclic(n, i, o, false, true)
	return res.Sc, res.Stats, err
}

// AnalyzeCyclic decides S_u and S_c for process i under the Section 4.1
// semantics, including the τ-loop divergence rule. The distinguished
// process must be τ-free.
func AnalyzeCyclic(n *network.Network, i int, o Options) (Result, error) {
	return cyclic(n, i, o, true, true)
}

// UnavoidableCyclic decides the Section 4 S_u alone for process i.
func UnavoidableCyclic(n *network.Network, i int, o Options) (bool, Stats, error) {
	res, err := cyclic(n, i, o, true, false)
	return res.Su, res.Stats, err
}

// CollaborationCyclic decides the Section 4 S_c alone for process i.
func CollaborationCyclic(n *network.Network, i int, o Options) (bool, Stats, error) {
	res, err := cyclic(n, i, o, false, true)
	return res.Sc, res.Stats, err
}

// acyclic runs the Section 3.1 analysis. The verdict equals the reference
// formulation on the P×Q pair graph (Q = ‖ of the context) because the
// reachable pair graph and the reachable joint-vector graph are
// isomorphic: Q's states are exactly the reachable context vectors, Q's
// τ-moves the context-internal moves, and stuck pairs the stuck vectors.
func acyclic(n *network.Network, i int, o Options, needSu, needSc bool) (Result, error) {
	mc, err := compile(n, i)
	if err != nil {
		return Result{}, err
	}
	if err := mc.checkAcyclicShape(maxStates(o), o.Guard); err != nil {
		return Result{}, limitErr(o.Guard, err, "shape", false, bfsFlags{}, Stats{})
	}
	_, flags, stats, err := mc.bfs(false, o, func(f bfsFlags) bool {
		// S_u is decided early only by a counterexample, S_c only by a
		// witness; completion decides the rest.
		return (!needSu || f.stuckNonLeaf) && (!needSc || f.stuckLeaf)
	})
	if err != nil {
		return Result{Stats: stats}, limitErr(o.Guard, err, "bfs", false, flags, stats)
	}
	return Result{Su: !flags.stuckNonLeaf, Sc: flags.stuckLeaf, Stats: stats}, nil
}

// cyclic runs the Section 4.1 analysis on the flat joint graph. The
// reference composes the context with the cyclic ‖, whose fold inserts a
// divergence leaf ⊥ under every silently diverging composite state; on
// the flat graph those two effects become
//
//	¬S_u ⇔ some reachable vector has no context move and no enabled
//	        P-handshake (the stable-disjoint pair), or the context-move
//	        subgraph of the reachable joint graph has a cycle (the run
//	        that silently diverges, reaching ⊥ in the folded form);
//	S_c  ⇔ some reachable cycle contains a P-handshake edge
//	        (⇔ Lang(P) ∩ Lang(Q) is infinite: pump the cycle).
//
// One asymmetry of the fold carries over: ComposeAllCyclic applies the
// divergence-leaf construction only when it actually composes, so a
// two-process network's context — a single raw process — gets no ⊥ and
// the divergence rule must not fire. The engine mirrors that exactly.
func cyclic(n *network.Network, i int, o Options, needSu, needSc bool) (Result, error) {
	mc, err := compile(n, i)
	if err != nil {
		return Result{}, err
	}
	if err := mc.checkSection4P(); err != nil {
		return Result{}, err
	}
	var res Result
	suKnown, scKnown := false, false
	if !o.Tune.NoProbe {
		// The bounded witness probes can decide ¬S_u (a context τ-cycle or
		// a blocking vector) and S_c (a cycle through a P-handshake) from
		// witnesses near the start, without exhausting the joint space;
		// on the philosopher rings they decide instantly.
		pr, perr := mc.probeCyclic(needSu, needSc, o.Guard)
		res.Stats.ProbeStates = pr.states
		if pr.suFalse {
			suKnown = true
		}
		if pr.scTrue {
			res.Sc, scKnown = true, true
		}
		if perr != nil {
			return res, probeLimitErr(o.Guard, perr, pr, res.Stats)
		}
		if (!needSu || suKnown) && (!needSc || scKnown) {
			return res, nil
		}
	}
	needSuX := needSu && !suKnown // predicates exhaustive exploration still owes
	needScX := needSc && !scKnown
	in, flags, stats, err := mc.bfs(true, o, func(f bfsFlags) bool {
		// S_c needs the full reachable graph; S_u alone can stop at the
		// first blocking witness.
		return !needScX && (!needSuX || f.blocked)
	})
	stats.ProbeStates = res.Stats.ProbeStates
	res.Stats = stats
	if suKnown {
		flags.blocked = true // the probe's ¬S_u witness is as good as a blocked vector
	}
	if err != nil {
		return res, limitErr(o.Guard, err, "bfs", true, flags, stats)
	}
	if needSu {
		blocked := flags.blocked
		if !blocked && mc.m >= 3 {
			blocked, err = mc.ctxTauCycle(in, o.Guard)
			if err != nil {
				return res, limitErr(o.Guard, err, "tau-cycle", true, flags, stats)
			}
		}
		res.Su = !blocked
	}
	if needScX {
		sc, err := mc.handshakeCycle(in, o.Guard)
		if err != nil {
			lerr := limitErr(o.Guard, err, "handshake-cycle", true, flags, stats)
			var le *guard.LimitErr
			if errors.As(lerr, &le) && needSu {
				// S_u was fully decided before this pass started.
				le.Partial.Su = guard.Of(res.Su)
			}
			return res, lerr
		}
		res.Sc = sc
	}
	return res, nil
}

// probeLimitErr converts a governor stop inside the witness probes into
// a partial verdict carrying whatever the probes had already decided.
func probeLimitErr(g *guard.G, err error, pr probeResult, stats Stats) error {
	if !guard.IsLimit(err) {
		return err
	}
	p := guard.Partial{States: stats.ProbeStates, Pass: "probe"}
	if pr.suFalse {
		p.Su = guard.False
	}
	if pr.scTrue {
		p.Sc = guard.True
	}
	return g.Limit(err, p)
}

// limitErr converts a governor stop reason from one of the passes into a
// *guard.LimitErr carrying level-accurate stats and whichever
// predicates the monotone flags had already forced. Non-limit errors
// (shape violations) pass through untouched.
func limitErr(g *guard.G, err error, pass string, cyclic bool, flags bfsFlags, stats Stats) error {
	if !guard.IsLimit(err) {
		return err
	}
	p := guard.Partial{States: stats.States, Depth: stats.Depth, Pass: pass}
	if cyclic {
		// A blocked vector decides ¬S_u outright; nothing short of a full
		// graph decides S_c, so it stays unknown.
		if flags.blocked {
			p.Su = guard.False
		}
	} else {
		if flags.stuckNonLeaf {
			p.Su = guard.False
		}
		if flags.stuckLeaf {
			p.Sc = guard.True
		}
	}
	return g.Limit(err, p)
}

func maxStates(o Options) int {
	if o.MaxStates <= 0 {
		return DefaultMaxStates
	}
	return o.MaxStates
}

// Joint-move kinds, as classified against the distinguished process.
const (
	moveDistTau       = iota // τ of the distinguished process
	moveCtxTau               // τ of a context member
	moveCtxHandshake         // handshake internal to the context (τ of Q)
	moveDistHandshake        // handshake between P and its context
)

// visTrans is one visible transition, compiled to action ids. Because an
// FSP's transitions are sorted by label and action ids follow the sorted
// action order, compiled slices are sorted by (aid, to) for free.
type visTrans struct {
	aid uint32
	to  uint32
}

// machine is the compiled form of a network: per-process, per-state move
// tables and the two owners of every action.
type machine struct {
	m        int
	dist     int
	procs    []*fsp.FSP
	tau      [][][]uint32   // tau[j][s]: τ-successors of state s of process j
	vis      [][][]visTrans // vis[j][s]: visible transitions, sorted by (aid, to)
	ownerA   []int32        // per action id, the smaller owner index
	ownerB   []int32        // per action id, the larger owner index
	distLeaf []bool         // per state of the distinguished process
}

// compile builds the machine for distinguished process dist.
func compile(n *network.Network, dist int) (*machine, error) {
	if dist < 0 || dist >= n.Len() {
		return nil, fmt.Errorf("explore: process %d of %d: %w", dist, n.Len(), network.ErrBadIndex)
	}
	procs := n.Processes()
	var actions []fsp.Action
	for _, p := range procs {
		actions = append(actions, p.Alphabet()...)
	}
	sort.Slice(actions, func(i, j int) bool { return actions[i] < actions[j] })
	w := 0
	for i, a := range actions {
		if i == 0 || a != actions[w-1] {
			actions[w] = a
			w++
		}
	}
	actions = actions[:w]
	aid := make(map[fsp.Action]uint32, len(actions))
	for i, a := range actions {
		aid[a] = uint32(i)
	}
	mc := &machine{
		m:      len(procs),
		dist:   dist,
		procs:  procs,
		tau:    make([][][]uint32, len(procs)),
		vis:    make([][][]visTrans, len(procs)),
		ownerA: make([]int32, len(actions)),
		ownerB: make([]int32, len(actions)),
	}
	for i := range mc.ownerA {
		mc.ownerA[i], mc.ownerB[i] = -1, -1
	}
	for j, p := range procs {
		for _, a := range p.Alphabet() {
			id := aid[a]
			if mc.ownerA[id] < 0 {
				mc.ownerA[id] = int32(j)
			} else if mc.ownerB[id] < 0 {
				mc.ownerB[id] = int32(j)
			} else {
				return nil, fmt.Errorf("explore: action %q has more than two owners: %w",
					a, network.ErrActionOwners)
			}
		}
	}
	for id, a := range actions {
		if mc.ownerB[id] < 0 {
			return nil, fmt.Errorf("explore: action %q has fewer than two owners: %w",
				a, network.ErrActionOwners)
		}
	}
	for j, p := range procs {
		mc.tau[j] = make([][]uint32, p.NumStates())
		mc.vis[j] = make([][]visTrans, p.NumStates())
		for s := 0; s < p.NumStates(); s++ {
			for _, t := range p.Out(fsp.State(s)) {
				if t.Label == fsp.Tau {
					mc.tau[j][s] = append(mc.tau[j][s], uint32(t.To))
				} else {
					mc.vis[j][s] = append(mc.vis[j][s], visTrans{aid[t.Label], uint32(t.To)})
				}
			}
		}
	}
	p := procs[dist]
	mc.distLeaf = make([]bool, p.NumStates())
	for s := 0; s < p.NumStates(); s++ {
		mc.distLeaf[s] = p.IsLeaf(fsp.State(s))
	}
	return mc, nil
}

func (mc *machine) startVec() []uint32 {
	vec := make([]uint32, mc.m)
	for j, p := range mc.procs {
		vec[j] = uint32(p.Start())
	}
	return vec
}

// expand enumerates the joint moves at vec: every component τ, and every
// handshake — enumerated once, from the smaller-indexed owner, as the
// cross product of the two owners' matching transitions. fn receives the
// successor (valid only during the call; it aliases scratch) and the move
// kind; returning false stops the enumeration. expand reports whether any
// move exists, even if fn stopped early.
func (mc *machine) expand(vec, scratch []uint32, fn func(succ []uint32, kind int) bool) bool {
	moved := false
	for j := 0; j < mc.m; j++ {
		kind := moveCtxTau
		if j == mc.dist {
			kind = moveDistTau
		}
		for _, to := range mc.tau[j][vec[j]] {
			moved = true
			copy(scratch, vec)
			scratch[j] = to
			if !fn(scratch, kind) {
				return true
			}
		}
	}
	for j := 0; j < mc.m; j++ {
		ts := mc.vis[j][vec[j]]
		for x := 0; x < len(ts); {
			a := ts[x].aid
			xe := x + 1
			for xe < len(ts) && ts[xe].aid == a {
				xe++
			}
			if mc.ownerA[a] != int32(j) {
				x = xe // the smaller owner enumerates this handshake
				continue
			}
			k := int(mc.ownerB[a])
			ps := mc.vis[k][vec[k]]
			lo := sort.Search(len(ps), func(i int) bool { return ps[i].aid >= a })
			kind := moveCtxHandshake
			if j == mc.dist || k == mc.dist {
				kind = moveDistHandshake
			}
			for pi := lo; pi < len(ps) && ps[pi].aid == a; pi++ {
				for xi := x; xi < xe; xi++ {
					moved = true
					copy(scratch, vec)
					scratch[j] = ts[xi].to
					scratch[k] = ps[pi].to
					if !fn(scratch, kind) {
						return true
					}
				}
			}
			x = xe
		}
	}
	return moved
}

// checkSection4P validates the Section 4 assumption on the distinguished
// process: no τ-moves.
func (mc *machine) checkSection4P() error {
	if len(mc.tau[mc.dist]) == 0 {
		return nil
	}
	for _, ts := range mc.tau[mc.dist] {
		if len(ts) > 0 {
			return fmt.Errorf("explore: %s has τ-moves: %w", mc.procs[mc.dist].Name(), ErrShape)
		}
	}
	return nil
}

package belief

// This file holds the two game solvers over (P-state, belief) positions.
// The acyclic game is a DFS over the position DAG with an explicit frame
// stack. The cyclic game is a level-synchronized reachability sweep
// followed by a counter-based greatest-fixpoint elimination in rounds.
// Both are sequential, so verdicts, counts, and the partial verdicts
// reported when the governor stops a pass are deterministic.

import (
	"fmt"

	"fspnet/internal/game"
)

const (
	lose = uint8(1)
	win  = uint8(2)
)

// sweepPollStride amortizes the governor polls inside one cyclic-sweep
// level or one fixpoint round: one Poll per stride of positions, beside
// the poll at the level's or round's head.
const sweepPollStride = 64

func posKey(p uint32, bid int32) uint64 {
	return uint64(p)<<32 | uint64(uint32(bid))
}

// solveAcyclic evaluates the acyclic game from the start position. P
// wins at a position iff P is at a leaf, or the position is not blocked
// and every action the adversary can offer has some P-response that
// wins. The position graph is a DAG (every move fires a real P
// transition and P is acyclic), so a depth-first evaluation with an
// explicit stack terminates without in-progress tracking.
func (sv *solver) solveAcyclic() (bool, error) {
	memo := make(map[uint64]uint8)
	startBid := sv.startBelief()

	// frame is one in-progress position: iterating its actions (ai), and
	// for the current offerable action the stepped belief (nbid) and the
	// P-response range [si, hi) into pvis[p]. lo < 0 marks "advance to
	// the next action".
	type frame struct {
		key    uint64
		p      uint32
		bid    int32
		acts   []int32
		ai     int
		lo     int
		si, hi int
		nbid   int32
	}
	var stack []frame

	// resolve enters a position: memo hits and terminal verdicts resolve
	// immediately, anything else pushes a frame.
	resolve := func(p uint32, bid int32) (done bool, v uint8, err error) {
		key := posKey(p, bid)
		if v, ok := memo[key]; ok {
			return true, v, nil
		}
		sv.stats.Positions++
		if err := sv.chargePos(); err != nil {
			return false, 0, err
		}
		if sv.M.DistLeaf(p) {
			memo[key] = win
			return true, win, nil
		}
		acts := sv.pacts[p]
		if sv.blocked(bid, acts) {
			memo[key] = lose
			return true, lose, nil
		}
		stack = append(stack, frame{key: key, p: p, bid: bid, acts: acts, lo: -1, nbid: -1})
		return false, 0, nil
	}

	done, v, err := resolve(uint32(sv.M.DistStart()), startBid)
	if err != nil {
		return false, err
	}
	if done {
		return v == win, nil
	}
	var final uint8
	// pop finishes the top frame with verdict v and advances the parent:
	// a winning response moves it to its next action, a losing one to its
	// next response.
	pop := func(v uint8) {
		f := stack[len(stack)-1]
		memo[f.key] = v
		stack = stack[:len(stack)-1]
		if len(stack) == 0 {
			final = v
			return
		}
		parent := &stack[len(stack)-1]
		if v == win {
			parent.ai++
			parent.lo = -1
		} else {
			parent.si++
		}
	}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.lo < 0 {
			if f.ai >= len(f.acts) {
				// Every offerable action has a winning response.
				pop(win)
				continue
			}
			aid := f.acts[f.ai]
			nb := sv.step(f.bid, aid)
			if nb < 0 {
				f.ai++ // the adversary cannot offer aid on this trail
				continue
			}
			f.nbid = nb
			f.lo, f.hi = sv.succRange(f.p, aid)
			f.si = f.lo
		}
		if f.si >= f.hi {
			// The adversary forces acts[ai]: every response loses.
			pop(lose)
			continue
		}
		done, v, err := resolve(sv.pvis[f.p][f.si].To, f.nbid)
		if err != nil {
			return false, err
		}
		if done {
			// resolve pushed nothing, so f is still the top frame.
			if v == win {
				f.ai++
				f.lo = -1
			} else {
				f.si++
			}
		}
		// Otherwise the child frame is on top; evaluate it first.
	}
	return final == win, nil
}

// solveCyclic evaluates the Section 4 game: P wins iff it can play
// forever. Phase 1 is a level-synchronized breadth-first sweep interning
// every position reachable from the start and recording its edge groups
// (per offerable action, the P-responses into the stepped belief). A
// position is dead when P is at a leaf or the belief is blocked. Phase 2
// removes positions while some offerable action has zero surviving
// responses, in waves over the reversed edges: each fallen position
// decrements its predecessors' group counters, and a position falls in
// the next wave when one of its counters reaches zero.
func (sv *solver) solveCyclic() (bool, error) {
	startBid := sv.startBelief()
	type pnode struct {
		p   uint32
		bid int32
	}
	ids := make(map[uint64]int32)
	var list []pnode
	var dead []bool
	var groups [][][]int32
	addPos := func(p uint32, bid int32) (int32, bool) {
		key := posKey(p, bid)
		if id, ok := ids[key]; ok {
			return id, false
		}
		id := int32(len(list))
		ids[key] = id
		list = append(list, pnode{p: p, bid: bid})
		dead = append(dead, false)
		groups = append(groups, nil)
		sv.stats.Positions++
		return id, true
	}
	chargeLevel := func(fresh int) error {
		n := sv.stats.Positions
		if n > sv.budget {
			return sv.limit(fmt.Errorf("belief: %d positions: %w", n, game.ErrBudget), "game", n)
		}
		if err := sv.g.Charge(fresh); err != nil {
			return sv.limit(fmt.Errorf("belief: %d positions: %w", n, err), "game", n)
		}
		return nil
	}
	startID, _ := addPos(uint32(sv.M.DistStart()), startBid)
	if err := chargeLevel(1); err != nil {
		return false, err
	}

	level := []int32{startID}
	for lvl := 0; len(level) > 0; lvl++ {
		if err := sv.g.Poll("game", lvl); err != nil {
			return false, sv.limit(fmt.Errorf("belief: cyclic sweep stopped at level %d: %w", lvl, err),
				"game", sv.stats.Positions)
		}
		var next []int32
		fresh := 0
		for k, u := range level {
			if k > 0 && k%sweepPollStride == 0 {
				if err := sv.g.Poll("game", lvl); err != nil {
					return false, sv.limit(fmt.Errorf("belief: cyclic sweep stopped in level %d: %w", lvl, err),
						"game", sv.stats.Positions)
				}
			}
			nd := list[u]
			acts := sv.pacts[nd.p]
			if sv.M.DistLeaf(nd.p) || sv.blocked(nd.bid, acts) {
				dead[u] = true
				continue
			}
			var gs [][]int32
			for _, aid := range acts {
				nb := sv.step(nd.bid, aid)
				if nb < 0 {
					continue
				}
				lo, hi := sv.succRange(nd.p, aid)
				ds := make([]int32, 0, hi-lo)
				for i := lo; i < hi; i++ {
					id, isFresh := addPos(sv.pvis[nd.p][i].To, nb)
					if isFresh {
						next = append(next, id)
						fresh++
					}
					ds = append(ds, id)
				}
				gs = append(gs, ds)
			}
			groups[u] = gs
		}
		if err := chargeLevel(fresh); err != nil {
			return false, err
		}
		level = next
	}

	// Greatest fixpoint by backward counter propagation. gc[gcOff[u]+g]
	// is the number of still-winning responses in group g of position u;
	// when it hits zero the adversary can force that action and u falls.
	if err := sv.g.Poll("fixpoint", 0); err != nil {
		return false, sv.limit(err, "fixpoint", sv.stats.Positions)
	}
	n := len(list)
	type ref struct {
		u int32
		g int32
	}
	rev := make([][]ref, n)
	gcOff := make([]int32, n+1)
	for u := 0; u < n; u++ {
		gcOff[u+1] = gcOff[u] + int32(len(groups[u]))
	}
	gc := make([]int32, gcOff[n])
	for u := range groups {
		for g, ds := range groups[u] {
			gc[gcOff[u]+int32(g)] = int32(len(ds))
			for _, d := range ds {
				rev[d] = append(rev[d], ref{u: int32(u), g: int32(g)})
			}
		}
	}
	fallen := make([]bool, n)
	var wave, nextWave []int32
	for u := 0; u < n; u++ {
		if dead[u] {
			fallen[u] = true
			wave = append(wave, int32(u))
		}
	}
	for round := 0; len(wave) > 0; round++ {
		if err := sv.g.Poll("fixpoint", round); err != nil {
			return false, sv.limit(fmt.Errorf("belief: fixpoint stopped at round %d: %w", round, err),
				"fixpoint", sv.stats.Positions)
		}
		nextWave = nextWave[:0]
		for k, d := range wave {
			if k > 0 && k%sweepPollStride == 0 {
				if err := sv.g.Poll("fixpoint", round); err != nil {
					return false, sv.limit(fmt.Errorf("belief: fixpoint stopped in round %d: %w", round, err),
						"fixpoint", sv.stats.Positions)
				}
			}
			for _, r := range rev[d] {
				idx := gcOff[r.u] + r.g
				gc[idx]--
				if gc[idx] == 0 && !fallen[r.u] {
					fallen[r.u] = true
					nextWave = append(nextWave, r.u)
				}
			}
		}
		wave, nextWave = nextWave, wave
	}
	return !fallen[startID], nil
}

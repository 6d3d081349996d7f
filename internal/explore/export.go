package explore

import (
	"fspnet/internal/guard"
	"fspnet/internal/network"
)

// This file is the exported reuse surface of the engine's internals —
// the compiled action-owner machine and the context-move enumerator —
// for solvers outside this package that walk the same joint space
// without composing the context; the Interner they record vectors in is
// exported from bfs.go. Its one consumer today is internal/game/belief,
// the compose-free S_a engine.

// Machine is the compiled form of a network for one distinguished
// process: per-process move tables indexed by dense action ids and the
// two owners of every action (Definition 2).
type Machine struct {
	mc *machine
}

// Compile builds the Machine for distinguished process dist of n.
func Compile(n *network.Network, dist int) (*Machine, error) {
	mc, err := compile(n, dist)
	if err != nil {
		return nil, err
	}
	return &Machine{mc: mc}, nil
}

// NumProcs returns the number of processes in the network.
func (M *Machine) NumProcs() int { return M.mc.m }

// StartVec returns a fresh copy of the joint start vector.
func (M *Machine) StartVec() []uint32 { return M.mc.startVec() }

// DistStart returns the start state of the distinguished process.
func (M *Machine) DistStart() uint32 { return uint32(M.mc.procs[M.mc.dist].Start()) }

// NumDistStates returns the state count of the distinguished process.
func (M *Machine) NumDistStates() int { return M.mc.procs[M.mc.dist].NumStates() }

// DistLeaf reports whether state s of the distinguished process is a
// leaf.
func (M *Machine) DistLeaf(s uint32) bool { return M.mc.distLeaf[s] }

// VisMove is one visible transition of the distinguished process,
// compiled to a dense action id.
type VisMove struct {
	Aid int32
	To  uint32
}

// DistMoves returns the visible transitions of the distinguished process
// at state s, sorted by (Aid, To). The distinguished process of a game
// solve is τ-free, so this is its whole move relation.
func (M *Machine) DistMoves(s uint32) []VisMove {
	ts := M.mc.vis[M.mc.dist][s]
	out := make([]VisMove, len(ts))
	for i, t := range ts {
		out[i] = VisMove{Aid: int32(t.aid), To: t.to}
	}
	return out
}

// CheckDistTauFree validates the Figure 4 / Section 4 assumption that
// the distinguished process has no τ-moves, returning an ErrShape-based
// error otherwise.
func (M *Machine) CheckDistTauFree() error { return M.mc.checkSection4P() }

// CheckAcyclicShape validates the Section 3 domain: the distinguished
// process and its composed context must both be acyclic. budget bounds
// the context-product walk the check may need; g is polled inside it.
func (M *Machine) CheckAcyclicShape(budget int, g *guard.G) error {
	return M.mc.checkAcyclicShape(budget, g)
}

// CtxMoves enumerates the moves of the composed context at the joint
// vector vec (the distinguished component is carried along frozen):
// member τ and context-internal handshakes — the context's τ-moves —
// are reported with aid −1, and solo moves on an action shared with the
// distinguished process with that action's id. succ aliases scratch and
// is valid only during the call; returning false stops the enumeration.
func (M *Machine) CtxMoves(vec, scratch []uint32, fn func(succ []uint32, aid int32) bool) {
	M.mc.ctxExpandLabeled(vec, scratch, fn)
}

package explore

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"fspnet/internal/guard"
)

// Interner is the visited set of joint state vectors, shared by the
// engine's BFS and post-passes and by the belief engine's context walk.
// It assigns dense int32 ids in discovery order and keeps one flat arena,
// id i at [i*m, (i+1)*m), so a BFS that expands states in id order
// reads its frontier straight out of the arena and records edges that
// are already dense. Keys pack every component at the narrowest width
// (1, 2, or 4 bytes) that holds the largest process's state count — one
// byte per component in the common case — into a second flat arena,
// indexed by an open-addressing table of ids. Every array is
// pointer-free, so the garbage collector never scans the visited set.
// An Interner is strictly sequential: it is not safe for concurrent
// use.
type Interner struct {
	m     int
	width int      // key bytes per component: 1, 2, or 4
	kw    int      // key bytes per vector: width·m
	n     int      // interned vectors
	vecs  []uint32 // flat vector arena, id i at [i*m, (i+1)*m)
	keys  []byte   // flat key arena, id i at [i*kw, (i+1)*kw)
	slots []int32  // linear-probing table of id+1 (0: empty); len a power of two
	kb    []byte   // key scratch
}

// NewInterner returns an empty interner for the joint vectors of M's
// network.
func NewInterner(M *Machine) *Interner { return M.mc.newInterner() }

func (mc *machine) newInterner() *Interner {
	most := 0
	for _, p := range mc.procs {
		most = max(most, p.NumStates())
	}
	return newInterner(mc.m, most)
}

// newInterner returns an empty interner for vectors of m components,
// each below states.
func newInterner(m, states int) *Interner {
	width := 4
	switch {
	case states <= 1<<8:
		width = 1
	case states <= 1<<16:
		width = 2
	}
	kw := width * m
	return &Interner{m: m, width: width, kw: kw, slots: make([]int32, 64), kb: make([]byte, kw)}
}

// key packs vec into the key scratch and returns it.
func (in *Interner) key(vec []uint32) []byte {
	kb := in.kb
	switch in.width {
	case 1:
		for i, v := range vec {
			kb[i] = byte(v)
		}
	case 2:
		for i, v := range vec {
			binary.LittleEndian.PutUint16(kb[i*2:], uint16(v))
		}
	default:
		for i, v := range vec {
			binary.LittleEndian.PutUint32(kb[i*4:], v)
		}
	}
	return kb
}

// hashKey mixes a packed key eight bytes at a time and finishes with the
// splitmix64 finalizer, so the table's low bits are well spread. It is a
// fixed function: ids never depend on it, but a fixed table layout keeps
// runs reproducible down to their probe sequences.
func hashKey(kb []byte) uint64 {
	h := uint64(len(kb))
	for ; len(kb) >= 8; kb = kb[8:] {
		h = bits.RotateLeft64(h^binary.LittleEndian.Uint64(kb)*0x87c37b91114253d5, 31) * 0x4cf5ad432745937f
	}
	for _, b := range kb {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// find returns the table slot holding key kb and its id, or the empty
// slot where kb belongs and −1.
func (in *Interner) find(kb []byte) (int, int32) {
	mask := len(in.slots) - 1
	for i := int(hashKey(kb)) & mask; ; i = (i + 1) & mask {
		s := in.slots[i]
		if s == 0 {
			return i, -1
		}
		lo := int(s-1) * in.kw
		if string(in.keys[lo:lo+in.kw]) == string(kb) {
			return i, s - 1
		}
	}
}

// grow doubles the table and reinserts every id from the key arena.
func (in *Interner) grow() {
	in.slots = make([]int32, 2*len(in.slots))
	mask := len(in.slots) - 1
	for id := 0; id < in.n; id++ {
		i := int(hashKey(in.keys[id*in.kw:(id+1)*in.kw])) & mask
		for in.slots[i] != 0 {
			i = (i + 1) & mask
		}
		in.slots[i] = int32(id + 1)
	}
}

// Intern records a copy of vec if unseen and returns its dense id and
// whether it was fresh.
func (in *Interner) Intern(vec []uint32) (int32, bool) {
	kb := in.key(vec)
	i, id := in.find(kb)
	if id >= 0 {
		return id, false
	}
	id = int32(in.n)
	in.n++
	in.slots[i] = id + 1
	in.keys = appendDoubling(in.keys, kb)
	in.vecs = appendDoubling(in.vecs, vec)
	if 2*in.n > len(in.slots) {
		in.grow()
	}
	return id, true
}

// appendDoubling is append with capacity doubling. The arenas are the
// largest allocations of a run, and append's own growth factor for large
// slices (1.25×) would allocate about five times their final size.
func appendDoubling[T any](s, v []T) []T {
	if len(s)+len(v) > cap(s) {
		grown := make([]T, len(s), 2*cap(s)+len(v))
		copy(grown, s)
		s = grown
	}
	return append(s, v...)
}

// ID returns the dense id of an interned vector, or −1 if vec was never
// interned.
func (in *Interner) ID(vec []uint32) int32 {
	_, id := in.find(in.key(vec))
	return id
}

// Len returns the number of interned vectors.
func (in *Interner) Len() int { return in.n }

// Vec returns the joint vector of id. The slice aliases the arena and is
// read-only; stored vectors never change, so it stays valid across later
// Interns.
func (in *Interner) Vec(id int32) []uint32 {
	lo := int(id) * in.m
	return in.vecs[lo : lo+in.m : lo+in.m]
}

// from returns the arena from id on: the flat vectors of every state
// interned since the arena held id states.
func (in *Interner) from(id int) []uint32 { return in.vecs[id*in.m:] }

// bfsFlags are the monotone verdict bits, merged at level ends.
type bfsFlags struct {
	stuckLeaf    bool // acyclic: some stuck vector has P at a leaf
	stuckNonLeaf bool // acyclic: some stuck vector has P off-leaf
	blocked      bool // cyclic: some vector has no joint move at all
}

// bfs runs the level-synchronized exploration from the joint start
// vector. Ids are dense in discovery order, so each level's fresh states
// are one contiguous id range and the next frontier is the arena tail
// they occupy. done is consulted only at the head of a level, as are the
// MaxStates budget and the governor's cancellation/deadline checks; the
// level's fresh states are charged at its end. The returned flags and
// Stats are those of the last completed level on every path — including
// a panic inside a level, which is recovered into a guard.ErrPanic
// reason with the half-expanded level discarded.
func (mc *machine) bfs(cyclic bool, o Options, done func(bfsFlags) bool) (*Interner, bfsFlags, Stats, error) {
	in := mc.newInterner()
	limit := maxStates(o)
	g := o.Guard
	in.Intern(mc.startVec())
	var flags bfsFlags
	stats := Stats{States: 1}
	frontier := in.from(0)
	for len(frontier) > 0 {
		if done(flags) {
			break
		}
		if err := g.Poll("bfs", stats.Depth); err != nil {
			return in, flags, stats, fmt.Errorf("explore: stopped at BFS level %d: %w", stats.Depth, err)
		}
		if stats.States > limit {
			return in, flags, stats, fmt.Errorf("explore: %d joint states interned: %w", stats.States, ErrBudget)
		}
		next := in.Len()
		lv, err := mc.expandLevel(cyclic, in, frontier, g, stats.Depth)
		if err != nil {
			return in, flags, stats, fmt.Errorf("explore: %w", err)
		}
		flags.stuckLeaf = flags.stuckLeaf || lv.flags.stuckLeaf
		flags.stuckNonLeaf = flags.stuckNonLeaf || lv.flags.stuckNonLeaf
		flags.blocked = flags.blocked || lv.flags.blocked
		stats.Moves += lv.moves
		fresh := in.Len() - next
		stats.States += fresh
		stats.Depth++
		frontier = in.from(next)
		if err := g.Charge(fresh); err != nil {
			return in, flags, stats, fmt.Errorf("explore: %d joint states interned: %w", stats.States, err)
		}
	}
	return in, flags, stats, nil
}

// levelOut is what one BFS level contributes, merged only once the
// level completes.
type levelOut struct {
	flags bfsFlags
	moves int64
}

// expandLevel expands the frontier's vectors (flat, m words each) in id
// order, interning successors and classifying moveless vectors. A panic,
// injected or genuine, is recovered into a guard.ErrPanic reason.
func (mc *machine) expandLevel(cyclic bool, in *Interner, frontier []uint32, g *guard.G, depth int) (out levelOut, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: at BFS level %d: %v", guard.ErrPanic, depth, r)
		}
	}()
	if g.ShouldPanic("bfs", depth) {
		panic("faultinject: synthetic BFS panic")
	}
	scratch := make([]uint32, mc.m)
	for v := 0; v < len(frontier); v += mc.m {
		vec := frontier[v : v+mc.m]
		moved := mc.expand(vec, scratch, func(succ []uint32, kind int) bool {
			out.moves++
			in.Intern(succ)
			return true
		})
		if !moved {
			// Under Section 4 P is τ-free, so "no joint move" is exactly
			// the blocking condition: Q stable (no context τ, no
			// context-internal handshake) and the offered action sets
			// disjoint (no enabled P-handshake).
			switch {
			case cyclic:
				out.flags.blocked = true
			case mc.distLeaf[vec[mc.dist]]:
				out.flags.stuckLeaf = true
			default:
				out.flags.stuckNonLeaf = true
			}
		}
	}
	return out, nil
}

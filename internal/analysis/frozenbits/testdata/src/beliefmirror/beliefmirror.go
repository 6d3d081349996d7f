//fsplint:testpath fspnet/internal/game/belief

// Package beliefmirror mirrors the shape of the belief arena's set
// accessor so frozenbits can be exercised against the protected method
// set without importing the real (unexported) type from outside its
// package, and walks context vectors through explore's real Interner the
// way belief's context BFS does.
package beliefmirror

import "fspnet/internal/explore"

type arena struct {
	words []uint64
	w     int
}

func (ar *arena) set(bid int32) []uint64 {
	off := int(bid) * ar.w
	return ar.words[off : off+ar.w]
}

// Direct write through the accessor call: flagged.
func direct(ar *arena, bid int32) {
	ar.set(bid)[0] = 1 // want `write through an interned-bitset accessor slice`
}

// Write through a variable bound to the accessor result: flagged.
func viaVar(ar *arena, bid int32) {
	cur := ar.set(bid)
	cur[0] |= 1 // want `write to cur, which aliases interned arena storage`
}

// Compound-assignment and inc/dec forms count as writes too.
func forms(ar *arena, bid int32) {
	ws := ar.set(bid)
	ws[1]++             // want `write to ws, which aliases interned arena storage`
	ar.set(bid)[2] ^= 4 // want `write through an interned-bitset accessor slice`
}

// Reading through the alias is the documented use: clean.
func read(ar *arena, a, b int32) bool {
	x, y := ar.set(a), ar.set(b)
	for i := range x {
		if x[i]&^y[i] != 0 {
			return false
		}
	}
	return true
}

// A variable also assigned from a non-accessor source is not tracked:
// the copy-then-mutate idiom stays clean.
func copied(ar *arena, bid int32) []uint64 {
	cur := ar.set(bid)
	cur = append([]uint64(nil), cur...)
	cur[0] |= 1
	return cur
}

// The context walk reads each frontier vector through the shared
// Interner; editing it in place instead of in scratch is flagged.
func ctxStep(ci *explore.Interner, src int32) {
	vec := ci.Vec(src)
	vec[0] = 1          // want `write to vec, which aliases interned arena storage`
	ci.Vec(src)[1] ^= 2 // want `write through an interned-bitset accessor slice`
}

// Interning a successor built in scratch is the documented use: clean.
func ctxIntern(ci *explore.Interner, src int32, scratch []uint32) int32 {
	copy(scratch, ci.Vec(src))
	scratch[0]++
	id, _ := ci.Intern(scratch)
	return id
}

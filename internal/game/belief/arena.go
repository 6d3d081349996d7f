package belief

import (
	"encoding/binary"
	"math/bits"
)

// arena interns τ-closed belief bitsets. Each belief is words packed
// uint64s; the only copy lives in one flat data array, id i at
// [i*words, (i+1)*words), and the id map keys on the little-endian byte
// image of the words, so equality is a memcmp of the packed words. Ids
// are dense in interning order. The data array is append-only and
// interned words are immutable, so a slice returned by set stays valid
// even after a later append reallocates the array.
type arena struct {
	words int
	ids   map[string]int32
	data  []uint64
	kb    []byte // key scratch, 8·words bytes
}

func newArena(words int) *arena {
	return &arena{words: words, ids: make(map[string]int32), kb: make([]byte, 8*words)}
}

// intern records the bitset if unseen and returns its id and whether it
// was fresh. set is copied into the arena, so callers may reuse it.
func (ar *arena) intern(set []uint64) (int32, bool) {
	for i, w := range set {
		binary.LittleEndian.PutUint64(ar.kb[i*8:], w)
	}
	if bid, ok := ar.ids[string(ar.kb)]; ok {
		return bid, false
	}
	bid := int32(len(ar.ids))
	ar.ids[string(ar.kb)] = bid
	ar.data = append(ar.data, set...)
	return bid, true
}

// size returns the number of interned beliefs.
func (ar *arena) size() int { return len(ar.ids) }

// set returns the interned bitset of a belief id. The slice aliases an
// immutable region of the arena; callers must not modify it.
func (ar *arena) set(bid int32) []uint64 {
	lo := int(bid) * ar.words
	return ar.data[lo : lo+ar.words : lo+ar.words]
}

// startBelief interns the τ-closure of the context start state.
func (sv *solver) startBelief() int32 {
	buf := sv.buf
	for i := range buf {
		buf[i] = 0
	}
	buf[sv.startGid>>6] |= 1 << (uint(sv.startGid) & 63)
	sv.tauClose()
	bid, _ := sv.ar.intern(buf)
	return bid
}

// step computes the belief after P observes action aid from belief bid:
// every aid-successor of every member, τ-closed, interned. Returns −1
// when no member offers aid (the adversary cannot play it on this
// trail). Each (belief, action) pair is computed once and memoized.
func (sv *solver) step(bid int32, aid int32) int32 {
	key := uint64(uint32(bid))<<32 | uint64(uint32(aid))
	if nb, ok := sv.memo[key]; ok {
		return nb
	}
	cur := sv.ar.set(bid)
	buf := sv.buf
	for i := range buf {
		buf[i] = 0
	}
	hit := false
	for w, word := range cur {
		for word != 0 {
			s := int32(w<<6 | bits.TrailingZeros64(word))
			word &= word - 1
			vm := sv.cg.vis[s]
			lo, hi := 0, len(vm)
			for lo < hi {
				mid := (lo + hi) / 2
				if vm[mid].aid < aid {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			for ; lo < len(vm) && vm[lo].aid == aid; lo++ {
				buf[vm[lo].to>>6] |= 1 << (uint(vm[lo].to) & 63)
				hit = true
			}
		}
	}
	nb := int32(-1)
	if hit {
		sv.tauClose()
		nb, _ = sv.ar.intern(buf)
	}
	sv.memo[key] = nb
	return nb
}

// tauClose closes sv.buf under the context's τ-moves (including the
// edge to the synthetic ⊥ from divergent states) in place.
func (sv *solver) tauClose() {
	buf := sv.buf
	stack := sv.closeStack[:0]
	for w, word := range buf {
		for word != 0 {
			stack = append(stack, int32(w<<6|bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	//fsplint:ignore guardpoll bounded by the context τ-graph; context states are charged at interning
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range sv.cg.tau[s] {
			if buf[t>>6]&(1<<(uint(t)&63)) == 0 {
				buf[t>>6] |= 1 << (uint(t) & 63)
				stack = append(stack, t)
			}
		}
	}
	sv.closeStack = stack
}

// blocked reports whether the belief contains a stable context state
// offering no action in acts — the adversary can steer there and stop
// the game. The synthetic ⊥ is stable and offers nothing, so any belief
// containing it is blocked.
func (sv *solver) blocked(bid int32, acts []int32) bool {
	for w, word := range sv.ar.set(bid) {
		for word != 0 {
			s := int32(w<<6 | bits.TrailingZeros64(word))
			word &= word - 1
			if sv.cg.stable[s] && !intersect32(sv.cg.offers[s], acts) {
				return true
			}
		}
	}
	return false
}

// intersect32 reports whether two sorted int32 slices share an element.
func intersect32(xs, ys []int32) bool {
	i, j := 0, 0
	for i < len(xs) && j < len(ys) {
		switch {
		case xs[i] == ys[j]:
			return true
		case xs[i] < ys[j]:
			i++
		default:
			j++
		}
	}
	return false
}

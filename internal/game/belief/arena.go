package belief

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"
)

// arenaShards is the belief-arena sharding factor; a power of two so the
// FNV hash of the packed words maps to a shard with a mask. Sharding
// keeps each shard's id map and flat block arena small, the same layout
// internal/explore uses for joint vectors.
const arenaShards = 64

// arena interns τ-closed belief bitsets. Each belief is words packed
// uint64s; the only copy lives in one shard's flat block arena, and the
// shard's id map keys on the little-endian byte image of the words, so
// equality is a memcmp of the packed words. Belief ids encode the shard
// in the low bits (bid = local<<6 | shard), giving every interned belief
// a stable dense-ish id without a global remap.
//
// The arena is safe for concurrent sweep workers: each shard carries its
// own RWMutex and callers bring their own key scratch (scratch.kb). The
// per-shard data arena is append-only and interned words are immutable,
// so a slice returned by set stays valid after the lock is dropped even
// if a later append reallocates the shard's backing array.
type arena struct {
	words  int
	count  atomic.Int64
	shards [arenaShards]struct {
		mu   sync.RWMutex
		ids  map[string]int32
		data []uint64
	}
}

func newArena(words int) *arena {
	ar := &arena{words: words}
	for i := range ar.shards {
		ar.shards[i].ids = make(map[string]int32)
	}
	return ar
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// intern records the bitset if unseen and returns its id and whether it
// was fresh. kb is the caller's 8·words key scratch; set is copied into
// the arena, so callers may reuse both.
func (ar *arena) intern(kb []byte, set []uint64) (int32, bool) {
	h := fnvOffset
	for i, w := range set {
		binary.LittleEndian.PutUint64(kb[i*8:], w)
		h ^= w
		h *= fnvPrime
	}
	si := int32(h & (arenaShards - 1))
	sh := &ar.shards[si]
	sh.mu.RLock()
	bid, ok := sh.ids[string(kb)]
	sh.mu.RUnlock()
	if ok {
		return bid, false
	}
	sh.mu.Lock()
	if bid, ok := sh.ids[string(kb)]; ok {
		sh.mu.Unlock()
		return bid, false
	}
	local := int32(len(sh.data) / ar.words)
	bid = local<<6 | si
	sh.ids[string(kb)] = bid
	sh.data = append(sh.data, set...)
	sh.mu.Unlock()
	ar.count.Add(1)
	return bid, true
}

// size returns the number of interned beliefs.
func (ar *arena) size() int { return int(ar.count.Load()) }

// set returns the interned bitset of a belief id. The slice aliases an
// immutable region of the arena; callers must not modify it.
func (ar *arena) set(bid int32) []uint64 {
	sh := &ar.shards[bid&(arenaShards-1)]
	local := int(bid >> 6)
	sh.mu.RLock()
	s := sh.data[local*ar.words : (local+1)*ar.words]
	sh.mu.RUnlock()
	return s
}

// scratch is the per-worker mutable state of the belief primitives: the
// arena key buffer, the step/closure bitset, and the τ-closure worklist.
// Each cyclic sweep worker owns one, leaving the arena and the step memo
// as the only synchronization points.
type scratch struct {
	kb         []byte
	buf        []uint64
	closeStack []int32
}

func newScratch(words int) *scratch {
	return &scratch{kb: make([]byte, 8*words), buf: make([]uint64, words)}
}

// stepTable memoizes (belief, action) → stepped belief across workers,
// sharded RWMutex maps keyed like the old single-map memo. Two workers
// racing on the same missing key may both compute the step; that is
// harmless — step is deterministic and the arena dedups the result — and
// cheaper than holding a lock across the computation.
type stepTable struct {
	shards [arenaShards]struct {
		mu sync.RWMutex
		m  map[uint64]int32
	}
}

func newStepTable() *stepTable {
	t := &stepTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]int32)
	}
	return t
}

func stepShardOf(key uint64) int {
	return int((key * fnvPrime) >> 58)
}

func (t *stepTable) get(key uint64) (int32, bool) {
	sh := &t.shards[stepShardOf(key)]
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	return v, ok
}

func (t *stepTable) put(key uint64, v int32) {
	sh := &t.shards[stepShardOf(key)]
	sh.mu.Lock()
	sh.m[key] = v
	sh.mu.Unlock()
}

// startBelief interns the τ-closure of the context start state.
func (sv *solver) startBelief(sc *scratch) int32 {
	buf := sc.buf
	for i := range buf {
		buf[i] = 0
	}
	buf[sv.startGid>>6] |= 1 << (uint(sv.startGid) & 63)
	sv.tauClose(sc)
	bid, _ := sv.ar.intern(sc.kb, buf)
	return bid
}

// step computes the belief after P observes action aid from belief bid:
// every aid-successor of every member, τ-closed, interned. Returns −1
// when no member offers aid (the adversary cannot play it on this
// trail). Each (belief, action) pair is computed once and memoized.
func (sv *solver) step(sc *scratch, bid int32, aid int32) int32 {
	key := uint64(uint32(bid))<<32 | uint64(uint32(aid))
	if nb, ok := sv.memo.get(key); ok {
		return nb
	}
	cur := sv.ar.set(bid)
	buf := sc.buf
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
		sv.tauClose(sc)
		nb, _ = sv.ar.intern(sc.kb, buf)
	}
	sv.memo.put(key, nb)
	return nb
}

// tauClose closes sc.buf under the context's τ-moves (including the
// edge to the synthetic ⊥ from divergent states) in place.
func (sv *solver) tauClose(sc *scratch) {
	buf := sc.buf
	stack := sc.closeStack[:0]
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
	sc.closeStack = stack
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

package explore

import (
	"math/rand"
	"slices"
	"testing"
)

// TestInternerWidths interns enough vectors to grow the table several
// times at every key width, including component values that differ
// only above the low byte, and checks the Interner's contract: dense ids
// in discovery order, stable ids on repeats, −1 for unseen vectors, and
// arena views that equal what was interned.
func TestInternerWidths(t *testing.T) {
	for _, tc := range []struct{ states, width int }{
		{3, 1}, {1 << 8, 1}, {1<<8 + 1, 2}, {1 << 16, 2}, {1<<16 + 1, 4},
	} {
		const m = 4
		in := newInterner(m, tc.states)
		if in.width != tc.width {
			t.Fatalf("states=%d: width %d, want %d", tc.states, in.width, tc.width)
		}
		r := rand.New(rand.NewSource(int64(tc.states)))
		top := uint32(tc.states - 1)
		pick := func() uint32 {
			// Bias toward the extremes and their low-byte aliases, where a
			// too-narrow key would merge distinct vectors.
			switch r.Intn(4) {
			case 0:
				return top
			case 1:
				return top & 0xff
			default:
				return uint32(r.Intn(tc.states))
			}
		}
		target := 1 // min(3000, states^m)
		for i := 0; i < m && target < 3000; i++ {
			target = min(3000, target*tc.states)
		}
		var want [][]uint32
		seen := map[[m]uint32]int32{}
		for len(seen) < target {
			vec := []uint32{pick(), pick(), pick(), pick()}
			id, fresh := in.Intern(vec)
			k := [m]uint32(vec)
			if prev, ok := seen[k]; ok {
				if fresh || id != prev {
					t.Fatalf("states=%d: repeat of %v got (id %d, fresh %v), want (%d, false)", tc.states, vec, id, fresh, prev)
				}
				continue
			}
			if !fresh || int(id) != len(want) {
				t.Fatalf("states=%d: fresh %v got (id %d, fresh %v), want (%d, true)", tc.states, vec, id, fresh, len(want))
			}
			seen[k] = id
			want = append(want, vec)
		}
		if in.Len() != len(want) {
			t.Fatalf("states=%d: Len %d, want %d", tc.states, in.Len(), len(want))
		}
		for id, vec := range want {
			if got := in.Vec(int32(id)); !slices.Equal(got, vec) {
				t.Fatalf("states=%d: Vec(%d) = %v, want %v", tc.states, id, got, vec)
			}
			if got := in.ID(vec); got != int32(id) {
				t.Fatalf("states=%d: ID(%v) = %d, want %d", tc.states, vec, got, id)
			}
		}
		if got := len(in.from(len(want) - 1)); got != m {
			t.Fatalf("states=%d: arena tail of the last id has %d words, want %d", tc.states, got, m)
		}
		if tc.states > 4 {
			// Some absent vector: the top value everywhere but one slot,
			// which takes every value until one is unseen.
			for v := uint32(0); v <= top; v++ {
				vec := []uint32{top, top, top, v}
				if _, ok := seen[[m]uint32(vec)]; !ok {
					if got := in.ID(vec); got != -1 {
						t.Fatalf("states=%d: ID of unseen %v = %d, want -1", tc.states, vec, got)
					}
					break
				}
			}
		}
	}
}

// Package a writes through the real explore.Interner.Vec accessor,
// proving the check fires on the actual exported API, not just the
// shape mirrors.
package a

import "fspnet/internal/explore"

func mutate(in *explore.Interner, id int32) {
	in.Vec(id)[0] = 1 // want `write through an interned-bitset accessor slice`
}

func mutateVar(in *explore.Interner, id int32) {
	v := in.Vec(id)
	v[1]++ // want `write to v, which aliases interned arena storage`
}

func sum(in *explore.Interner, id int32) uint32 {
	var s uint32
	for _, w := range in.Vec(id) {
		s += w
	}
	return s
}

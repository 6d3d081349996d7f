//fsplint:testpath fspnet/internal/explore

// Package exploremirror mirrors the explore package's Interner and its
// Vec accessor over the flat joint-vector arena, as the BFS and the
// post-passes use it inside the package.
package exploremirror

type Interner struct {
	m    int
	vecs []uint32
}

func (in *Interner) Vec(id int32) []uint32 {
	lo := int(id) * in.m
	return in.vecs[lo : lo+in.m : lo+in.m]
}

func direct(in *Interner, id int32) {
	in.Vec(id)[0] = 7 // want `write through an interned-bitset accessor slice`
}

func viaVar(in *Interner, id int32) {
	v := in.Vec(id)
	v[0] = 7 // want `write to v, which aliases interned arena storage`
}

// Expansion copies the aliased vector into scratch before editing it:
// clean.
func expand(in *Interner, id int32, scratch []uint32) {
	copy(scratch, in.Vec(id))
	scratch[0] = 7
}

func readOnly(in *Interner, id int32) uint32 {
	var sum uint32
	for _, w := range in.Vec(id) {
		sum += w
	}
	return sum
}

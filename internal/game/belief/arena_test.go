// White-box tests for the belief arena: interned bitsets are immutable
// and stay retrievable after later appends reallocate the data array.
package belief

import "testing"

// TestArenaSetAliasStable pins the append-only aliasing contract
// explicitly: a slice taken early must survive enough later interns to
// force the data array through several reallocations.
func TestArenaSetAliasStable(t *testing.T) {
	const words = 2
	ar := newArena(words)
	buf := []uint64{0xdeadbeef, 0xfeedface}
	bid, fresh := ar.intern(buf)
	if !fresh {
		t.Fatal("first intern not fresh")
	}
	early := ar.set(bid)
	for i := 1; i < 4096; i++ {
		buf[0], buf[1] = uint64(i), uint64(i*3)
		ar.intern(buf)
	}
	if early[0] != 0xdeadbeef || early[1] != 0xfeedface {
		t.Fatalf("early slice corrupted after growth: %#x %#x", early[0], early[1])
	}
}

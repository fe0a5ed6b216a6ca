package mem

import "testing"

// An access of the steady-state hierarchy allocates nothing.
func TestAccessDoesNotAllocate(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	var i, now uint64
	step := func() {
		i++
		addr := (i * 0x9e3779b97f4a7c15 >> 49) * LineSize
		now += 16
		h.Access(addr, now, i%4 == 0, int(i%8))
		h.Prefetch(addr+LineSize, now, SrcRunahead)
	}
	for j := 0; j < 10000; j++ {
		step()
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("Access+Prefetch allocate %.2f times per call", n)
	}
}

// BenchmarkAccess is one demand access and one prefetch over a working
// set larger than the L2, with every fourth access a store.
func BenchmarkAccess(b *testing.B) {
	h := NewHierarchy(DefaultConfig())
	var now uint64
	for i := 0; i < b.N; i++ {
		x := uint64(i)
		addr := (x * 0x9e3779b97f4a7c15 >> 49) * LineSize
		now += 16
		h.Access(addr, now, x%4 == 0, int(x%8))
		h.Prefetch(addr+LineSize, now, SrcRunahead)
	}
}

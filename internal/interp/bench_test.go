package interp

import (
	"testing"

	"dvr/internal/isa"
)

func benchLoop() *Interp {
	bl := isa.NewBuilder("b")
	bl.Li(1, 0)
	bl.Li(3, 1<<20)
	bl.Label("top")
	bl.Hash(8, 1)
	bl.AndI(8, 8, (1<<18)-1)
	bl.LoadIdx(9, 3, 8, 0)
	bl.AddI(1, 1, 1)
	bl.CmpI(7, 1, 1<<40)
	bl.Br(isa.LT, 7, "top")
	return New(bl.MustBuild(), NewMemory())
}

// BenchmarkStep measures functional interpretation throughput, the inner
// loop of every simulation.
func BenchmarkStep(b *testing.B) {
	it := benchLoop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Step()
	}
}

var (
	benchSink uint64
	benchMem  *Memory
)

// BenchmarkRunWith and BenchmarkRunInto measure a functional pass that
// looks at every instruction, by value and through the reused record.
func BenchmarkRunWith(b *testing.B) {
	it := benchLoop()
	b.ResetTimer()
	it.RunWith(uint64(b.N), func(di DynInst) {
		if di.Inst.Op.IsLoad() {
			benchSink += di.Addr
		}
	})
}

func BenchmarkRunInto(b *testing.B) {
	it := benchLoop()
	b.ResetTimer()
	it.RunInto(uint64(b.N), func(di *DynInst) {
		if di.Inst.Op.IsLoad() {
			benchSink += di.Addr
		}
	})
}

// BenchmarkMemoryStore64 measures sparse-memory write throughput.
func BenchmarkMemoryStore64(b *testing.B) {
	m := NewMemory()
	for i := 0; i < b.N; i++ {
		m.Store64(uint64(i%(1<<22))*8, uint64(i))
	}
}

// benchImage is a 64 MiB image built the way workloads build theirs.
func benchImage() *Memory {
	m := NewMemory()
	buf := make([]uint64, 512)
	for a := uint64(0); a < 64<<20; a += uint64(len(buf)) * 8 {
		for i := range buf {
			buf[i] = a + uint64(i)
		}
		m.StoreSlice(1<<20+a, buf)
	}
	return m
}

// BenchmarkLoad64Random reads random words of a 64 MiB image through a
// 16-deep fork chain in which every level owns a little of its own, the
// shape a sampled replay's memory has (boundary forks under a replay fork
// under a PRE clone).
func BenchmarkLoad64Random(b *testing.B) {
	m := benchImage()
	for d := uint64(0); d < 16; d++ {
		m = m.Fork()
		for i := uint64(0); i < 256; i++ {
			m.Store64(1<<20+isa.Mix64(d<<8|i)%(64<<20), i)
		}
	}
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += m.Load64(1<<20 + isa.Mix64(uint64(i))%(64<<20))
	}
	benchSink += sum
}

// BenchmarkForkFirstStores is one runahead episode on a random-store
// kernel: fork the image, store to 1 000 random words, drop the fork.
// B/op and allocs/op are the copy-on-write cost of those first stores.
func BenchmarkForkFirstStores(b *testing.B) {
	m := benchImage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := m.Fork()
		for j := uint64(0); j < 1000; j++ {
			f.Store64(1<<20+isa.Mix64(uint64(i)<<10|j)%(64<<20), j)
		}
	}
}

// BenchmarkForkOnly is the fixed cost of a fork of the 64 MiB image.
func BenchmarkForkOnly(b *testing.B) {
	m := benchImage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchMem = m.Fork()
	}
}

// BenchmarkStoreSliceBuild builds the 64 MiB image: the set-up cost of a
// workload, and the heap objects it leaves behind.
func BenchmarkStoreSliceBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchMem = benchImage()
	}
}

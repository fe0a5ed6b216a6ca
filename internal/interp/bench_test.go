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

var benchSink uint64

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

package cpu

import (
	"context"
	"runtime"
	"testing"

	"dvr/internal/interp"
	"dvr/internal/isa"
)

// BenchmarkCoreRun measures end-to-end simulated instructions per second
// of the timing model on a memory-bound loop.
func BenchmarkCoreRun(b *testing.B) {
	bl := isa.NewBuilder("b")
	bl.Li(1, 0)
	bl.Li(3, 1<<21)
	bl.Label("top")
	bl.Hash(8, 1)
	bl.AndI(8, 8, (1<<20)-1)
	bl.LoadIdx(9, 3, 8, 0)
	bl.AddI(1, 1, 1)
	bl.CmpI(7, 1, 1<<40)
	bl.Br(isa.LT, 7, "top")
	prog := bl.MustBuild()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core := NewCore(DefaultConfig(), interp.New(prog, interp.NewMemory()))
		res := core.Run(50_000)
		b.ReportMetric(float64(res.Instructions), "sim-insts/op")
	}
}

// Past its set-up (hierarchy, predictor, rings, calendars, the decode
// table) and a warm-up in which growable structures reach their size, the
// per-instruction loop allocates nothing: between a boundary 100k
// instructions in and the end of a 400k-instruction run, no heap object
// is allocated. The loop indexes a table that fits on chip, and one of
// 16 MB, twice the L3, whose misses keep the DRAM bandwidth calendar
// booking new epochs for the whole run.
func TestSteadyStateStepDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name string
		mask int64 // table index mask, in 8-byte words
	}{
		{"on-chip", (1 << 14) - 1},
		{"off-chip", (1 << 21) - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bl := isa.NewBuilder("steady")
			bl.Li(1, 0)
			bl.Li(3, 1<<21)
			bl.Label("top")
			bl.Hash(8, 1)
			bl.AndI(8, 8, tc.mask)
			bl.LoadIdx(9, 3, 8, 0)
			bl.Op3(isa.Mul, 10, 9, 8)
			bl.Store(3, 10, 0)
			bl.AddI(1, 1, 1)
			bl.CmpI(7, 1, 1<<40)
			bl.Br(isa.LT, 7, "top")
			var at, end runtime.MemStats
			core := NewCore(DefaultConfig(), interp.New(bl.MustBuild(), interp.NewMemory()))
			if _, err := core.RunWithOptions(context.Background(), 400_000, RunOptions{
				StatsBoundaryAt: 100_000,
				StatsBoundaryFn: func(Result) { runtime.ReadMemStats(&at) },
			}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&end)
			if n := end.Mallocs - at.Mallocs; n != 0 {
				t.Fatalf("300k steady-state instructions allocated %d times", n)
			}
		})
	}
}

package runahead

import (
	"testing"

	"dvr/internal/interp"
	"dvr/internal/isa"
)

// discover builds a program, functionally executes it, and drives the
// discovery state machine from the committed stream starting at the first
// commit of stridePC after `warm` instructions. It returns the result.
func discover(t *testing.T, prog *isa.Program, m *interp.Memory, stridePC int, warm int) discoveryResult {
	t.Helper()
	it := interp.New(prog, m)
	rpt := NewRPT(32)
	var regs [isa.NumRegs]uint64
	var d *discovery
	for i := 0; i < warm+10_000; i++ {
		di, ok := it.Step()
		if !ok {
			t.Fatal("program halted before discovery completed")
		}
		if d != nil {
			res, done := d.observe(&di, rpt, it.St.Regs)
			if done {
				return res
			}
			continue
		}
		if di.Inst.Op.WritesDst() {
			regs[di.Inst.Dst] = di.Val
		}
		if di.Inst.Op.IsLoad() {
			e := rpt.Observe(di.PC, di.Addr)
			if i >= warm && di.PC == stridePC && e.Confident() {
				d = newDiscovery(di.PC, e.Stride, it.St.Regs)
				d.seedTaint(di.Inst.Dst)
				d.Started = true
			}
		}
	}
	t.Fatal("discovery never completed")
	return discoveryResult{}
}

// chainProgram is a camel-shaped loop: striding load, dependent chain of
// two indirect loads, compare + backward branch with a register bound.
func chainProgram() (*isa.Program, *interp.Memory, int) {
	m := interp.NewMemory()
	for i := 0; i < 4096; i++ {
		m.Store64(uint64(0x100000+i*8), uint64(i%512))
	}
	b := isa.NewBuilder("chain")
	b.Li(1, 0)
	b.Li(2, 4096)     // bound (register, constant)
	b.Li(3, 0x100000) // A
	b.Li(4, 0x200000) // B
	b.Li(5, 0x300000) // C
	b.Label("top")
	stride := b.PC()
	b.LoadIdx(8, 3, 1, 0)  // a = A[i]     striding
	b.LoadIdx(9, 4, 8, 0)  // b = B[a]     level 1
	b.LoadIdx(10, 5, 9, 0) // c = C[b]     level 2 (FLR)
	b.AddI(1, 1, 1)
	b.Cmp(7, 1, 2)
	b.Br(isa.LT, 7, "top")
	b.Halt()
	return b.MustBuild(), m, stride
}

func TestDiscoveryFindsChainAndBound(t *testing.T) {
	prog, m, stride := chainProgram()
	res := discover(t, prog, m, stride, 30)
	if res.StridePC != stride {
		t.Errorf("stridePC = %d, want %d", res.StridePC, stride)
	}
	if res.FLRPC != stride+2 {
		t.Errorf("FLR = %d, want %d (the C load)", res.FLRPC, stride+2)
	}
	if !res.BoundKnown {
		t.Fatal("loop bound not inferred")
	}
	if res.Incr != 1 {
		t.Errorf("increment = %d, want 1", res.Incr)
	}
	if res.Lanes != MaxLanes {
		t.Errorf("lanes = %d, want %d (remaining iterations cap)", res.Lanes, MaxLanes)
	}
	if res.BackBranch != stride+5 {
		t.Errorf("back branch = %d, want %d", res.BackBranch, stride+5)
	}
	if res.Divergent {
		t.Error("chain without intervening branches flagged divergent")
	}
}

func TestDiscoveryLanesNearLoopEnd(t *testing.T) {
	prog, m, stride := chainProgram()
	// Warm up until only ~40 iterations remain (each iteration is 6
	// dynamic instructions after the 5-instruction preamble).
	warm := 5 + 6*(4096-40)
	res := discover(t, prog, m, stride, warm)
	if !res.BoundKnown {
		t.Fatal("bound not inferred")
	}
	if res.Lanes > 45 || res.Lanes < 30 {
		t.Errorf("remaining lanes = %d, want ~40", res.Lanes)
	}
}

func TestDiscoveryImmediateBound(t *testing.T) {
	m := interp.NewMemory()
	b := isa.NewBuilder("imm")
	b.Li(1, 0)
	b.Li(3, 0x100000)
	b.Li(4, 0x200000)
	b.Label("top")
	stride := b.PC()
	b.LoadIdx(8, 3, 1, 0)
	b.LoadIdx(9, 4, 8, 0)
	b.AddI(1, 1, 1)
	b.CmpI(7, 1, 100_000) // immediate bound
	b.Br(isa.LT, 7, "top")
	b.Halt()
	res := discover(t, b.MustBuild(), m, stride, 30)
	if !res.BoundKnown || !res.BoundIsImm {
		t.Fatalf("immediate bound not inferred: %+v", res)
	}
	if res.Lanes != MaxLanes {
		t.Errorf("lanes = %d, want cap", res.Lanes)
	}
}

func TestDiscoveryNoChain(t *testing.T) {
	// A striding load with no dependent loads: FLR stays empty, DVR not
	// worth triggering (§4.1.2).
	m := interp.NewMemory()
	b := isa.NewBuilder("nochain")
	b.Li(1, 0)
	b.Li(2, 10000)
	b.Li(3, 0x100000)
	b.Label("top")
	stride := b.PC()
	b.LoadIdx(8, 3, 1, 0)
	b.Add(9, 8, 8) // arithmetic on the value, but no dependent load
	b.AddI(1, 1, 1)
	b.Cmp(7, 1, 2)
	b.Br(isa.LT, 7, "top")
	b.Halt()
	res := discover(t, b.MustBuild(), m, stride, 30)
	if res.hasChain() {
		t.Errorf("chain reported for a stride with no dependent loads (flr=%d)", res.FLRPC)
	}
}

func TestDiscoverySwitchesToInnermostStride(t *testing.T) {
	// Outer loop strides over A; inner loop strides over B with a
	// dependent load off B's values. Discovery starting at the outer
	// striding load must switch to the inner one after seeing it twice.
	m := interp.NewMemory()
	for i := 0; i < 1024; i++ {
		m.Store64(uint64(0x200000+i*8), uint64(i%256))
	}
	b := isa.NewBuilder("nested")
	b.Li(1, 0)        // i
	b.Li(2, 500)      // outer bound
	b.Li(3, 0x100000) // A
	b.Li(4, 0x200000) // B
	b.Li(5, 0x300000) // C
	b.Label("outer")
	outerStride := b.PC()
	b.LoadIdx(8, 3, 1, 0) // A[i]      outer striding load
	b.Li(9, 0)            // j
	b.Label("inner")
	innerStride := b.PC()
	b.LoadIdx(10, 4, 9, 0)  // B[j]    inner striding load
	b.LoadIdx(11, 5, 10, 0) // C[B[j]] dependent
	b.AddI(9, 9, 1)
	b.CmpI(7, 9, 6)
	b.Br(isa.LT, 7, "inner")
	b.AddI(1, 1, 1)
	b.Cmp(7, 1, 2)
	b.Br(isa.LT, 7, "outer")
	b.Halt()
	res := discover(t, b.MustBuild(), m, outerStride, 200)
	if res.StridePC != innerStride {
		t.Errorf("discovery ended on pc %d, want the inner striding load %d", res.StridePC, innerStride)
	}
	if res.FLRPC != innerStride+1 {
		t.Errorf("FLR = %d, want %d", res.FLRPC, innerStride+1)
	}
}

func TestDiscoveryDivergentFlag(t *testing.T) {
	// A conditional branch between the FLR and the loop-closing branch
	// sets the footnote-1 divergent flag.
	m := interp.NewMemory()
	b := isa.NewBuilder("div")
	b.Li(1, 0)
	b.Li(2, 10000)
	b.Li(3, 0x100000)
	b.Li(4, 0x200000)
	b.Label("top")
	stride := b.PC()
	b.LoadIdx(8, 3, 1, 0)
	b.LoadIdx(9, 4, 8, 0) // FLR
	b.Br(isa.EQ, 9, "skip")
	b.AddI(10, 10, 1)
	b.Label("skip")
	b.AddI(1, 1, 1)
	b.Cmp(7, 1, 2)
	b.Br(isa.LT, 7, "top")
	b.Halt()
	res := discover(t, b.MustBuild(), m, stride, 30)
	if !res.hasChain() {
		t.Fatal("chain not found")
	}
	if !res.Divergent {
		t.Error("branch between FLR and loop close not flagged divergent")
	}
}

func TestDiscoveryBudgetAbort(t *testing.T) {
	// A "loop" that never returns to the striding load within the budget:
	// discovery must abort with no chain rather than run forever.
	m := interp.NewMemory()
	b := isa.NewBuilder("runaway")
	b.Li(1, 0)
	b.Li(3, 0x100000)
	stride := b.PC()
	b.LoadIdx(8, 3, 1, 0)
	b.AddI(1, 1, 1)
	b.CmpI(7, 1, 1<<40)
	b.Br(isa.LT, 7, "spin")
	b.Label("spin")
	b.Label("spintop")
	b.AddI(9, 9, 1)
	b.Jmp("spintop")
	prog := b.MustBuild()

	it := interp.New(prog, m)
	rpt := NewRPT(32)
	// Train the RPT artificially, then start discovery and feed the spin.
	for i := 0; i < 4; i++ {
		rpt.Observe(stride, uint64(0x100000+i*8))
	}
	d := newDiscovery(stride, 8, it.St.Regs)
	d.seedTaint(8)
	d.Started = true
	for i := 0; i < discoveryBudget+100; i++ {
		di, ok := it.Step()
		if !ok {
			t.Fatal("halted")
		}
		if res, done := d.observe(&di, rpt, it.St.Regs); done {
			if res.hasChain() {
				t.Error("aborted discovery reported a chain")
			}
			return
		}
	}
	t.Error("discovery did not abort within its budget")
}

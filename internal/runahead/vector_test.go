package runahead

import (
	"testing"

	"dvr/internal/interp"
	"dvr/internal/isa"
	"dvr/internal/mem"
)

func testHier() *mem.Hierarchy {
	cfg := mem.DefaultConfig()
	cfg.StrideEnabled = false
	return mem.NewHierarchy(cfg)
}

// gatherProgram: striding load feeding one dependent indirect load, then a
// loop-back compare/branch on a scalar induction variable.
func gatherProgram() (*isa.Program, *interp.Memory, int, int) {
	m := interp.NewMemory()
	for i := 0; i < 4096; i++ {
		m.Store64(uint64(0x100000+i*8), uint64(100+i))
	}
	b := isa.NewBuilder("g")
	b.Li(1, 0)
	b.Li(2, 4096)
	b.Li(3, 0x100000) // A
	b.Li(4, 0x800000) // B
	b.Label("top")
	stride := b.PC()
	b.LoadIdx(8, 3, 1, 0)
	flr := b.PC()
	b.LoadIdx(9, 4, 8, 0)
	b.AddI(1, 1, 1)
	b.Cmp(7, 1, 2)
	b.Br(isa.LT, 7, "top")
	b.Halt()
	return b.MustBuild(), m, stride, flr
}

func TestVectorGatherIssuesLanePrefetches(t *testing.T) {
	prog, m, stride, flr := gatherProgram()
	h := testHier()
	var regs [isa.NumRegs]uint64
	regs[1], regs[2], regs[3], regs[4] = 0, 4096, 0x100000, 0x800000

	const lanes = 32
	run := newVecRun(prog, prog.SrcMasks(), m, h, DefaultVecConfig(), newVecState(regs, lanes), 0)
	override := new(laneVec)
	for k := 0; k < lanes; k++ {
		override[k] = uint64(0x100000 + (k+1)*8)
	}
	run.exec(execOpts{startPC: stride, addrOverride: override, stridePC: stride, flrPC: flr, stopBefore: -1})

	// The striding gather touches 32 consecutive words = 5 lines (4 full +
	// boundary); the dependent gather touches 32 distinct B lines.
	if run.prefetches < 30 {
		t.Errorf("prefetches = %d, want >= 30", run.prefetches)
	}
	// Dependent lane values must be the functional values A[k+1].
	if !run.st.isVec(8) {
		t.Fatal("striding load dst not vectorized")
	}
	for k := 0; k < lanes; k++ {
		if run.st.vec[8][k] != uint64(100+k+1) {
			t.Errorf("lane %d of r8 = %d, want %d", k, run.st.vec[8][k], 100+k+1)
		}
	}
	// The dependent B lines must now be resident (prefetched into L1).
	for k := 0; k < lanes; k++ {
		if !h.Resident(0x800000 + uint64(100+k+1)*8) {
			t.Errorf("B line for lane %d not prefetched", k)
		}
	}
	if run.timedOut {
		t.Error("unexpected timeout")
	}
}

func TestVectorTerminatesAtFLR(t *testing.T) {
	prog, m, stride, flr := gatherProgram()
	h := testHier()
	var regs [isa.NumRegs]uint64
	regs[2], regs[3], regs[4] = 4096, 0x100000, 0x800000
	run := newVecRun(prog, prog.SrcMasks(), m, h, DefaultVecConfig(), newVecState(regs, 8), 0)
	override := new(laneVec)
	for k := 0; k < 8; k++ {
		override[k] = uint64(0x100000 + (k+1)*8)
	}
	run.exec(execOpts{startPC: stride, addrOverride: override, stridePC: stride, flrPC: flr, stopBefore: -1})
	// Only two instructions should execute: the stride gather and the FLR.
	if run.steps != 2 {
		t.Errorf("steps = %d, want 2 (terminate after FLR)", run.steps)
	}
}

func TestVectorTerminatesAtStridePCWithoutFLR(t *testing.T) {
	prog, m, stride, _ := gatherProgram()
	h := testHier()
	var regs [isa.NumRegs]uint64
	regs[2], regs[3], regs[4] = 4096, 0x100000, 0x800000
	run := newVecRun(prog, prog.SrcMasks(), m, h, DefaultVecConfig(), newVecState(regs, 8), 0)
	override := new(laneVec)
	for k := 0; k < 8; k++ {
		override[k] = uint64(0x100000 + (k+1)*8)
	}
	run.exec(execOpts{startPC: stride, addrOverride: override, stridePC: stride, flrPC: -1, stopBefore: -1})
	// One full iteration: gather, dependent, add, cmp, br -> loops back to
	// stride pc -> terminate.
	if run.steps != 5 {
		t.Errorf("steps = %d, want 5 (one iteration)", run.steps)
	}
}

// divergeProgram branches per-lane on the loaded value's parity and loads
// from a different array on each path.
func divergeProgram() (*isa.Program, *interp.Memory, int) {
	m := interp.NewMemory()
	for i := 0; i < 4096; i++ {
		m.Store64(uint64(0x100000+i*8), uint64(i)) // A[i] = i: alternating parity
	}
	b := isa.NewBuilder("d")
	b.Li(1, 0)
	b.Li(2, 4096)
	b.Li(3, 0x100000)
	b.Li(4, 0x800000) // even path array
	b.Li(5, 0xa00000) // odd path array
	b.Label("top")
	stride := b.PC()
	b.LoadIdx(8, 3, 1, 0)
	b.AndI(9, 8, 1)
	b.Br(isa.NE, 9, "odd")
	b.LoadIdx(10, 4, 8, 0) // even: B[a]
	b.Jmp("join")
	b.Label("odd")
	b.LoadIdx(10, 5, 8, 0) // odd: C[a]
	b.Label("join")
	b.AddI(1, 1, 1)
	b.Cmp(7, 1, 2)
	b.Br(isa.LT, 7, "top")
	b.Halt()
	return b.MustBuild(), m, stride
}

func vecPrefCount(t *testing.T, reconverge bool) (evens, odds int) {
	t.Helper()
	prog, m, stride := divergeProgram()
	h := testHier()
	var regs [isa.NumRegs]uint64
	regs[2], regs[3], regs[4], regs[5] = 4096, 0x100000, 0x800000, 0xa00000
	cfg := DefaultVecConfig()
	cfg.Reconverge = reconverge
	const lanes = 16
	run := newVecRun(prog, prog.SrcMasks(), m, h, cfg, newVecState(regs, lanes), 0)
	override := new(laneVec)
	for k := 0; k < lanes; k++ {
		override[k] = uint64(0x100000 + (k+1)*8) // values 1..16, half odd
	}
	run.exec(execOpts{startPC: stride, addrOverride: override, stridePC: stride, flrPC: -1, stopBefore: -1})
	for k := 1; k <= lanes; k++ {
		if k%2 == 0 && h.Resident(0x800000+uint64(k)*8) {
			evens++
		}
		if k%2 == 1 && h.Resident(0xa00000+uint64(k)*8) {
			odds++
		}
	}
	return evens, odds
}

func TestDivergenceFirstLaneFollowsOnePath(t *testing.T) {
	evens, odds := vecPrefCount(t, false)
	// Lane 0 has value 1 (odd): VR follows the odd path and invalidates
	// the even lanes.
	if odds != 8 {
		t.Errorf("odd-path prefetches = %d, want 8", odds)
	}
	if evens != 0 {
		t.Errorf("even-path prefetches = %d, want 0 under first-lane divergence", evens)
	}
}

func TestDivergenceReconvergeCoversBothPaths(t *testing.T) {
	evens, odds := vecPrefCount(t, true)
	if odds != 8 || evens != 8 {
		t.Errorf("reconvergence should cover both paths: evens=%d odds=%d, want 8/8", evens, odds)
	}
}

func TestVectorTimeout(t *testing.T) {
	m := interp.NewMemory()
	b := isa.NewBuilder("spin")
	b.Li(3, 0x100000)
	b.Label("top")
	stride := b.PC()
	b.LoadIdx(8, 3, 1, 0)
	b.AddI(9, 9, 1)
	b.Jmp("mid")
	b.Label("mid")
	b.AddI(9, 9, 1)
	b.Jmp("top2")
	b.Label("top2")
	b.Jmp("mid") // never returns to the stride pc
	prog := b.MustBuild()
	h := testHier()
	var regs [isa.NumRegs]uint64
	regs[3] = 0x100000
	run := newVecRun(prog, prog.SrcMasks(), m, h, DefaultVecConfig(), newVecState(regs, 8), 0)
	override := new(laneVec)
	run.exec(execOpts{startPC: stride, addrOverride: override, stridePC: stride, flrPC: -1, stopBefore: -1})
	if !run.timedOut {
		t.Error("runaway vector execution did not time out")
	}
	if run.steps != DefaultVecConfig().MaxSteps {
		t.Errorf("steps = %d, want %d", run.steps, DefaultVecConfig().MaxSteps)
	}
}

func TestScalarOverwriteUntaints(t *testing.T) {
	// A scalar write to a vectorized register renames it back to a scalar
	// physical register (the WAW case of §4.2.1).
	m := interp.NewMemory()
	b := isa.NewBuilder("waw")
	b.Li(3, 0x100000)
	b.Label("top")
	stride := b.PC()
	b.LoadIdx(8, 3, 1, 0) // r8 vectorized
	b.Li(8, 7)            // scalar overwrite
	b.AddI(1, 1, 1)
	b.Jmp("top")
	prog := b.MustBuild()
	h := testHier()
	var regs [isa.NumRegs]uint64
	regs[3] = 0x100000
	run := newVecRun(prog, prog.SrcMasks(), m, h, DefaultVecConfig(), newVecState(regs, 8), 0)
	override := new(laneVec)
	run.exec(execOpts{startPC: stride, addrOverride: override, stridePC: stride, flrPC: -1, stopBefore: -1})
	if run.st.isVec(8) {
		t.Error("scalar overwrite left register vectorized")
	}
	if run.st.scalar[8] != 7 {
		t.Errorf("scalar value = %d, want 7", run.st.scalar[8])
	}
}

func TestVectorUopAccounting(t *testing.T) {
	prog, m, stride, flr := gatherProgram()
	h := testHier()
	var regs [isa.NumRegs]uint64
	regs[2], regs[3], regs[4] = 4096, 0x100000, 0x800000
	run := newVecRun(prog, prog.SrcMasks(), m, h, DefaultVecConfig(), newVecState(regs, 128), 0)
	override := new(laneVec)
	for k := 0; k < 128; k++ {
		override[k] = uint64(0x100000 + (k+1)*8)
	}
	run.exec(execOpts{startPC: stride, addrOverride: override, stridePC: stride, flrPC: flr, stopBefore: -1})
	// Two vectorized instructions over 128 lanes = 2 x 16 AVX-512 uops.
	if run.uops != 32 {
		t.Errorf("vector uops = %d, want 32", run.uops)
	}
}

func TestInOrderSubthreadTiming(t *testing.T) {
	// The dependent gather cannot issue before the striding gather's data
	// returns; the end cursor must therefore exceed one memory latency.
	prog, m, stride, flr := gatherProgram()
	h := testHier()
	var regs [isa.NumRegs]uint64
	regs[2], regs[3], regs[4] = 4096, 0x100000, 0x800000
	run := newVecRun(prog, prog.SrcMasks(), m, h, DefaultVecConfig(), newVecState(regs, 16), 1000)
	override := new(laneVec)
	for k := 0; k < 16; k++ {
		override[k] = uint64(0x100000 + (k+1)*8)
	}
	run.exec(execOpts{startPC: stride, addrOverride: override, stridePC: stride, flrPC: flr, stopBefore: -1})
	if run.cursor < 1000+mem.DefaultConfig().DRAMMinLatency {
		t.Errorf("cursor = %d; dependent gather issued before stride data returned", run.cursor)
	}
}

func TestStopBeforeHandsOffState(t *testing.T) {
	prog, m, stride, flr := gatherProgram()
	h := testHier()
	var regs [isa.NumRegs]uint64
	regs[2], regs[3], regs[4] = 4096, 0x100000, 0x800000
	run := newVecRun(prog, prog.SrcMasks(), m, h, DefaultVecConfig(), newVecState(regs, 8), 0)
	override := new(laneVec)
	for k := 0; k < 8; k++ {
		override[k] = uint64(0x100000 + (k+1)*8)
	}
	out := run.exec(execOpts{startPC: stride, addrOverride: override, stridePC: -1, flrPC: -1, stopBefore: flr})
	if !out.reachedStop || out.pc != flr {
		t.Fatalf("stopBefore not honoured: %+v", out)
	}
	if !run.st.isVec(8) {
		t.Error("handed-off state lost vectorization")
	}
}

func TestVIRCopiesOverlapAcrossDependentGathers(t *testing.T) {
	// §4.2.2: the 16 copies of a dependent gather issue as THEIR lanes'
	// operands arrive, so two back-to-back dependent gathers over 128
	// lanes finish in roughly one memory latency plus the uop stream —
	// not two serial full-vector latencies.
	prog, m, stride, flr := gatherProgram()
	h := testHier()
	var regs [isa.NumRegs]uint64
	regs[2], regs[3], regs[4] = 4096, 0x100000, 0x800000
	run := newVecRun(prog, prog.SrcMasks(), m, h, DefaultVecConfig(), newVecState(regs, 128), 0)
	override := new(laneVec)
	for k := 0; k < 128; k++ {
		override[k] = uint64(0x100000 + (k+1)*8)
	}
	run.exec(execOpts{startPC: stride, addrOverride: override, stridePC: stride, flrPC: flr, stopBefore: -1})
	cfg := mem.DefaultConfig()
	oneTrip := cfg.L1D.Latency + cfg.L2.Latency + cfg.L3.Latency + cfg.DRAMMinLatency
	// Serial (per-register ready) timing would be >= 2 memory trips; with
	// per-lane readiness and MSHR/bandwidth queueing the episode must end
	// well under that plus queueing for 2x128 lanes.
	serial := 2*oneTrip + 2*128*cfg.DRAMCyclesPerLine
	if run.cursor >= serial {
		t.Errorf("episode cursor %d; dependent gathers did not overlap (serial bound %d)", run.cursor, serial)
	}
	if run.cursor < oneTrip {
		t.Errorf("episode cursor %d below one memory trip %d; timing too optimistic", run.cursor, oneTrip)
	}
}

func TestNestedFallsBackWithoutOuterStride(t *testing.T) {
	// A short inner loop with NO outer striding load: nested mode must
	// fall back to the loop-bound degree rather than wedge.
	m := interp.NewMemory()
	for i := 0; i < 1<<14; i++ {
		m.Store64(uint64(0x100000+i*8), uint64(i&255))
	}
	b := isa.NewBuilder("noouter")
	b.Li(2, 1<<40)
	b.Li(3, 0x100000)
	b.Li(4, 0x800000)
	b.Label("outer")
	b.Hash(5, 1) // outer "index" comes from compute, not a striding load
	b.AndI(5, 5, 1023)
	b.Li(9, 0)
	b.Label("inner")
	b.LoadIdx(8, 3, 9, 0)  // inner striding load
	b.LoadIdx(10, 4, 8, 0) // dependent
	b.AddI(9, 9, 1)
	b.CmpI(7, 9, 6)
	b.Br(isa.LT, 7, "inner")
	b.AddI(1, 1, 1)
	b.Cmp(7, 1, 2)
	b.Br(isa.LT, 7, "outer")
	b.Halt()
	prog := b.MustBuild()
	it := interp.New(prog, m)
	it.Run(60)
	h := testHier()
	eng := NewDVR(it, h)
	drive(t, eng, it, 3000)
	s := eng.Stats()
	if s.Episodes == 0 {
		t.Fatal("no episodes at all")
	}
	if s.NestedModes != 0 {
		t.Errorf("nested mode claimed success without an outer striding load (%d)", s.NestedModes)
	}
	if s.Prefetches == 0 {
		t.Error("fallback episodes issued no prefetches")
	}
}

package runahead

import (
	"testing"

	"dvr/internal/interp"
	"dvr/internal/isa"
	"dvr/internal/mem"
)

// drive feeds n functionally executed instructions into the engine as
// commits, 3 cycles apart (a slow main thread).
func drive(t *testing.T, eng *Vector, it *interp.Interp, n int) uint64 {
	t.Helper()
	var cyc uint64
	for i := 0; i < n; i++ {
		di, ok := it.Step()
		if !ok {
			break
		}
		cyc += 3
		eng.OnCommit(&di, cyc)
	}
	return cyc
}

func TestDVREngineEndToEnd(t *testing.T) {
	prog, m, _, _ := gatherProgram()
	it := interp.New(prog, m)
	it.Run(40) // warm past the preamble
	h := testHier()
	eng := NewDVR(it, h)
	drive(t, eng, it, 3000)
	s := eng.Stats()
	if s.Episodes == 0 {
		t.Fatal("DVR never spawned")
	}
	if s.DiscoveryModes == 0 {
		t.Error("Discovery Mode never ran")
	}
	if s.Prefetches == 0 {
		t.Error("no prefetches issued")
	}
	if s.Timeouts > s.Episodes/2 {
		t.Errorf("timeouts %d out of %d episodes", s.Timeouts, s.Episodes)
	}
	// Prefetches must target future iterations: with the main thread at
	// iteration ~i, lines for A[i+1..] should be resident.
	if eng.CommitBlockedUntil() != 0 {
		t.Error("decoupled DVR must never hold commit")
	}
}

func TestDVRPrefetchesFutureIterations(t *testing.T) {
	prog, m, _, _ := gatherProgram()
	it := interp.New(prog, m)
	it.Run(40)
	h := testHier()
	eng := NewDVR(it, h)
	drive(t, eng, it, 600)
	// The main thread is at iteration ~100; DVR's last episode covered up
	// to 128 future iterations of A (values 100+i), so B lines well ahead
	// of the main thread must be in the cache.
	iter := int(it.St.Regs[1])
	ahead := 0
	for k := 1; k <= 64; k++ {
		if h.Resident(0x800000 + uint64(100+iter+k)*8) {
			ahead++
		}
	}
	if ahead < 16 {
		t.Errorf("only %d of 64 future dependent lines resident", ahead)
	}
}

func TestVREngineNeedsStall(t *testing.T) {
	prog, m, _, _ := gatherProgram()
	it := interp.New(prog, m)
	it.Run(40)
	h := testHier()
	eng := NewVR(it, h)
	drive(t, eng, it, 2000) // commits alone never trigger VR
	if eng.Stats().Episodes != 0 {
		t.Error("VR spawned without a full-ROB stall")
	}
	eng.OnROBStall(6000, 6100)
	if eng.Stats().Episodes != 1 {
		t.Error("VR did not spawn on a full-ROB stall")
	}
	if eng.Stats().Prefetches == 0 {
		t.Error("VR issued no prefetches")
	}
}

func TestVRDelayedTerminationHoldsCommit(t *testing.T) {
	prog, m, _, _ := gatherProgram()
	it := interp.New(prog, m)
	it.Run(40)
	h := testHier()
	eng := NewVR(it, h)
	drive(t, eng, it, 2000)
	eng.OnROBStall(6000, 6050) // short stall: the chain outlives it
	hold := eng.CommitBlockedUntil()
	if hold <= 6050 {
		t.Errorf("delayed termination hold = %d, want beyond the stall window", hold)
	}
	// The hold clears once the main thread passes it.
	di, _ := it.Step()
	eng.OnCommit(&di, hold+1)
	if eng.CommitBlockedUntil() != 0 {
		t.Error("hold not cleared after the subthread finished")
	}
}

func TestVRIgnoresShortStalls(t *testing.T) {
	prog, m, _, _ := gatherProgram()
	it := interp.New(prog, m)
	it.Run(40)
	eng := NewVR(it, testHier())
	drive(t, eng, it, 2000)
	eng.OnROBStall(6000, 6005) // below MinStallCycles
	if eng.Stats().Episodes != 0 {
		t.Error("VR triggered on a sub-threshold stall")
	}
}

func TestOffloadOverfetchesShortLoops(t *testing.T) {
	// A short inner loop (8 iterations) feeding an indirect chain: without
	// Discovery Mode the offload variant blindly vectorizes 128 lanes and
	// fetches beyond the loop bound; Discovery Mode limits the lanes.
	build := func() (*isa.Program, *interp.Memory, int) {
		m := interp.NewMemory()
		for i := 0; i < 1<<16; i++ {
			m.Store64(uint64(0x100000+i*8), uint64(i&1023))
		}
		b := isa.NewBuilder("short")
		b.Li(1, 0)
		b.Li(2, 1<<40) // outer runs forever
		b.Li(3, 0x100000)
		b.Li(4, 0x800000)
		b.Label("outer")
		b.Li(9, 0)
		b.Label("inner")
		stride := b.PC()
		b.LoadIdx(8, 3, 9, 0)
		b.LoadIdx(10, 4, 8, 0)
		b.AddI(9, 9, 1)
		b.CmpI(7, 9, 8) // 8-iteration inner loop
		b.Br(isa.LT, 7, "inner")
		b.AddI(1, 1, 1)
		b.Cmp(7, 1, 2)
		b.Br(isa.LT, 7, "outer")
		b.Halt()
		return b.MustBuild(), m, stride
	}

	prog, m, _ := build()
	it := interp.New(prog, m)
	it.Run(100)
	offload := NewVector(OffloadOptions(), it, testHier())
	drive(t, offload, it, 2000)

	prog2, m2, _ := build()
	it2 := interp.New(prog2, m2)
	it2.Run(100)
	disc := NewVector(DiscoveryOptions(), it2, testHier())
	drive(t, disc, it2, 2000)

	so, sd := offload.Stats(), disc.Stats()
	if so.Episodes == 0 || sd.Episodes == 0 {
		t.Fatalf("episodes: offload=%d discovery=%d", so.Episodes, sd.Episodes)
	}
	perOff := float64(so.Prefetches) / float64(so.Episodes)
	perDisc := float64(sd.Prefetches) / float64(sd.Episodes)
	if perOff < 2*perDisc {
		t.Errorf("offload prefetches/episode = %.1f, discovery = %.1f; expected >= 2x over-fetch without loop bounds", perOff, perDisc)
	}
	if sd.LanesVectorize > 10 {
		t.Errorf("discovery lanes/episode = %.1f, want <= 8-ish for an 8-iteration loop", sd.LanesVectorize)
	}
}

func TestNestedModeCrossesInvocations(t *testing.T) {
	// BFS-like doubly nested loop with short, data-dependent inner trips:
	// full DVR must enter Nested Discovery Mode and prefetch inner-chain
	// targets belonging to FUTURE outer iterations.
	m := interp.NewMemory()
	n := 512
	// offsets[v] = v*6 (each vertex has 6 edges); edges[j] = some id.
	for v := 0; v <= n; v++ {
		m.Store64(uint64(0x100000+v*8), uint64(v*6))
	}
	for j := 0; j < n*6; j++ {
		m.Store64(uint64(0x200000+j*8), uint64((j*37)&1023))
	}
	b := isa.NewBuilder("bfslike")
	b.Li(1, 0)        // v
	b.Li(2, int64(n)) // n
	b.Li(3, 0x100000) // offsets
	b.Li(4, 0x200000) // edges
	b.Li(5, 0x800000) // visited
	b.Label("outer")
	b.LoadIdx(9, 3, 1, 0) // j = off[v]        outer striding load
	b.AddI(15, 1, 1)
	b.LoadIdx(10, 3, 15, 0) // end = off[v+1]
	b.Cmp(7, 9, 10)
	b.Br(isa.GE, 7, "odone")
	b.Label("inner")
	inner := b.PC()
	b.LoadIdx(11, 4, 9, 0)  // u = edges[j]    inner striding load
	b.LoadIdx(12, 5, 11, 0) // visited[u]      FLR
	b.AddI(9, 9, 1)
	b.Cmp(7, 9, 10)
	b.Br(isa.LT, 7, "inner")
	b.Label("odone")
	b.AddI(1, 1, 1)
	b.Cmp(7, 1, 2)
	b.Br(isa.LT, 7, "outer")
	b.Halt()
	prog := b.MustBuild()

	it := interp.New(prog, m)
	it.Run(200)
	h := testHier()
	eng := NewDVR(it, h)
	drive(t, eng, it, 4000)
	s := eng.Stats()
	if s.NestedModes == 0 {
		t.Fatalf("nested mode never engaged on 6-iteration inner loops (episodes=%d disc=%d)", s.Episodes, s.DiscoveryModes)
	}
	_ = inner
	// Check coverage beyond the current outer iteration: visited lines for
	// edges of vertices several outer iterations ahead must be resident.
	v := int(it.St.Regs[1])
	covered := 0
	total := 0
	for dv := 2; dv <= 10; dv++ {
		for e := 0; e < 6; e++ {
			j := (v+dv)*6 + e
			u := uint64((j * 37) & 1023)
			total++
			if h.Resident(0x800000 + u*8) {
				covered++
			}
		}
	}
	if covered*2 < total {
		t.Errorf("nested coverage: %d/%d future-outer visited lines resident", covered, total)
	}
}

func TestPREPrefetchesFirstLevelOnly(t *testing.T) {
	prog, m, stride := chainProgram()
	it := interp.New(prog, m)
	it.Run(5) // after the preamble, at the stride load
	h := testHier()
	pre := NewPRE(it, h, 5)
	// Runahead interval of 300 cycles: level-1 addresses (B[a]) are
	// computable (A hits or returns quickly once prefetched... here A
	// misses too, so only the A-stream itself and nothing dependent).
	pre.OnROBStall(1000, 1300)
	if pre.Stats().Episodes != 1 {
		t.Fatal("no PRE episode")
	}
	if pre.Stats().Prefetches == 0 {
		t.Fatal("PRE issued no prefetches")
	}
	// The C level (two dependent misses deep) must be unreachable within
	// the interval: no 0x300000-range line can be resident.
	cResident := 0
	for i := 0; i < 4096; i++ {
		if h.Resident(0x300000 + uint64(i)*8) {
			cResident++
		}
	}
	if cResident != 0 {
		t.Errorf("PRE reached the second level of indirection (%d C lines)", cResident)
	}
	_ = stride
}

func TestPRERespectsWidthBudget(t *testing.T) {
	prog, m, _ := chainProgram()
	it := interp.New(prog, m)
	it.Run(5)
	h := testHier()
	pre := NewPRE(it, h, 5)
	pre.OnROBStall(1000, 1004) // 4-cycle window: at most 20 uops, ~3 loads
	if p := pre.Stats().Prefetches; p > 8 {
		t.Errorf("PRE issued %d prefetches in a 4-cycle window", p)
	}
}

func TestEngineVariantOptions(t *testing.T) {
	vr, off, disc, dvr := VROptions(), OffloadOptions(), DiscoveryOptions(), DVROptions()
	if !vr.TriggerOnStall || vr.Discovery || vr.Nested || vr.Vec.Reconverge {
		t.Errorf("VR options wrong: %+v", vr)
	}
	if off.TriggerOnStall || off.Discovery {
		t.Errorf("offload options wrong: %+v", off)
	}
	if !disc.Discovery || disc.Nested {
		t.Errorf("discovery options wrong: %+v", disc)
	}
	if !dvr.Discovery || !dvr.Nested || !dvr.Vec.Reconverge {
		t.Errorf("DVR options wrong: %+v", dvr)
	}
	names := map[string]bool{vr.Name: true, off.Name: true, disc.Name: true, dvr.Name: true}
	if len(names) != 4 {
		t.Error("variant names not distinct")
	}
}

func TestEngineBusyPreventsOverlappingEpisodes(t *testing.T) {
	prog, m, _, _ := gatherProgram()
	it := interp.New(prog, m)
	it.Run(40)
	h := testHier()
	eng := NewDVR(it, h)
	cyc := drive(t, eng, it, 600)
	s1 := eng.Stats().Episodes
	if s1 == 0 {
		t.Fatal("no episodes")
	}
	// busyUntil must be in the future relative to the last commit.
	if eng.busyUntil <= cyc && eng.disc == nil && eng.pending == nil {
		t.Logf("engine idle at %d (busyUntil %d); acceptable between episodes", cyc, eng.busyUntil)
	}
	// Episodes are bounded by commits/iteration, never one per commit.
	if s1 > 600/6 {
		t.Errorf("episodes = %d for 100 iterations; spawning too often", s1)
	}
}

var _ = mem.SrcRunahead

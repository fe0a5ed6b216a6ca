package cpu

import (
	"testing"
	"testing/quick"

	"dvr/internal/interp"
	"dvr/internal/isa"
)

func buildLoop(body func(b *isa.Builder), iters int64) *isa.Program {
	b := isa.NewBuilder("loop")
	b.Li(1, 0)
	b.Li(2, iters)
	b.Label("top")
	body(b)
	b.AddI(1, 1, 1)
	b.Cmp(7, 1, 2)
	b.Br(isa.LT, 7, "top")
	b.Halt()
	return b.MustBuild()
}

func TestIPCBoundedByWidth(t *testing.T) {
	p := buildLoop(func(b *isa.Builder) {
		b.AddI(3, 3, 1)
		b.AddI(4, 4, 1)
	}, 5000)
	core := NewCore(DefaultConfig(), interp.New(p, interp.NewMemory()))
	res := core.Run(20_000)
	if res.IPC() > float64(DefaultConfig().Width) {
		t.Errorf("IPC %.2f exceeds width", res.IPC())
	}
	if res.IPC() < 1.5 {
		t.Errorf("pure-ALU loop IPC %.2f suspiciously low", res.IPC())
	}
}

func TestDependentChainSerializes(t *testing.T) {
	// A long dependent add chain must run at ~1 IPC regardless of width.
	p := buildLoop(func(b *isa.Builder) {
		for i := 0; i < 8; i++ {
			b.AddI(3, 3, 1)
		}
	}, 2000)
	core := NewCore(DefaultConfig(), interp.New(p, interp.NewMemory()))
	res := core.Run(20_000)
	if res.IPC() > 1.5 {
		t.Errorf("dependent chain IPC %.2f, want ~1", res.IPC())
	}
}

func TestMulDivLatencies(t *testing.T) {
	cfg := DefaultConfig()
	pMul := buildLoop(func(b *isa.Builder) { b.MulI(3, 3, 3) }, 1000)
	pDiv := buildLoop(func(b *isa.Builder) { b.OpI(isa.Div, 3, 3, 3) }, 1000)
	mulRes := NewCore(cfg, interp.New(pMul, interp.NewMemory())).Run(4000)
	divRes := NewCore(cfg, interp.New(pDiv, interp.NewMemory())).Run(4000)
	if divRes.Cycles <= mulRes.Cycles {
		t.Errorf("div chain (%d cyc) not slower than mul chain (%d cyc)", divRes.Cycles, mulRes.Cycles)
	}
}

func TestBranchMispredictPenalty(t *testing.T) {
	// A data-dependent 50/50 branch (on a hash) vs an always-taken branch:
	// the unpredictable one must be much slower.
	mk := func(random bool) *isa.Program {
		b := isa.NewBuilder("br")
		b.Li(1, 0)
		b.Li(2, 4000)
		b.Label("top")
		b.Hash(3, 1)
		if random {
			b.AndI(3, 3, 1)
		} else {
			b.Li(3, 1)
		}
		b.Br(isa.EQ, 3, "skip")
		b.Nop()
		b.Label("skip")
		b.AddI(1, 1, 1)
		b.Cmp(7, 1, 2)
		b.Br(isa.LT, 7, "top")
		b.Halt()
		return b.MustBuild()
	}
	rnd := NewCore(DefaultConfig(), interp.New(mk(true), interp.NewMemory())).Run(30_000)
	fix := NewCore(DefaultConfig(), interp.New(mk(false), interp.NewMemory())).Run(30_000)
	if rnd.MispredictRate() < 0.2 {
		t.Errorf("random branch mispredict rate %.2f, want >= 0.2", rnd.MispredictRate())
	}
	if fix.MispredictRate() > 0.05 {
		t.Errorf("fixed branch mispredict rate %.2f, want ~0", fix.MispredictRate())
	}
	if float64(rnd.Cycles) < 1.5*float64(fix.Cycles) {
		t.Errorf("mispredicts cost too little: rnd=%d fix=%d cycles", rnd.Cycles, fix.Cycles)
	}
}

func TestROBStallOnMiss(t *testing.T) {
	// Independent misses with a 350-entry ROB: dispatch must eventually
	// block on the ROB and the stall be accounted.
	b := isa.NewBuilder("m")
	b.Li(1, 0)
	b.Li(4, 1<<20)
	b.Li(11, (1<<22)-1)
	b.Label("top")
	b.Hash(8, 1)
	b.Op3(isa.And, 8, 8, 11)
	b.LoadIdx(10, 4, 8, 0)
	b.AddI(1, 1, 1)
	b.Jmp("top")
	p := b.MustBuild()
	core := NewCore(DefaultConfig(), interp.New(p, interp.NewMemory()))
	res := core.Run(30_000)
	if res.ROBStallFrac() < 0.2 {
		t.Errorf("ROB stall fraction %.2f, want >= 0.2 on a miss-bound loop", res.ROBStallFrac())
	}
	if res.MLP() < 8 {
		t.Errorf("MLP %.2f, want >= 8 for independent misses", res.MLP())
	}
}

func TestSmallerROBStallsMore(t *testing.T) {
	b := isa.NewBuilder("m")
	b.Li(1, 0)
	b.Li(4, 1<<20)
	b.Li(11, (1<<22)-1)
	b.Label("top")
	b.Hash(8, 1)
	b.Op3(isa.And, 8, 8, 11)
	b.LoadIdx(10, 4, 8, 0)
	for i := 0; i < 12; i++ {
		b.AddI(3, 3, 1)
	}
	b.AddI(1, 1, 1)
	b.Jmp("top")
	p := b.MustBuild()
	small := NewCore(DefaultConfig().WithROB(128), interp.New(p, interp.NewMemory())).Run(30_000)
	large := NewCore(DefaultConfig().WithROB(512), interp.New(p, interp.NewMemory())).Run(30_000)
	if small.ROBStallFrac() <= large.ROBStallFrac() {
		t.Errorf("stall fraction: ROB128=%.2f ROB512=%.2f; smaller ROB should stall more",
			small.ROBStallFrac(), large.ROBStallFrac())
	}
	if small.IPC() > large.IPC() {
		t.Errorf("IPC: ROB128=%.3f > ROB512=%.3f", small.IPC(), large.IPC())
	}
}

func TestWidthLimiterProperty(t *testing.T) {
	f := func(deltas []uint8, width8 uint8) bool {
		width := int(width8%5) + 1
		w := widthLimiter{width: width}
		var at uint64
		counts := map[uint64]int{}
		var lastAssigned uint64
		for _, d := range deltas {
			at += uint64(d % 3)
			got := w.next(at)
			if got < at || got < lastAssigned {
				return false // must be >= request and monotonic
			}
			lastAssigned = got
			counts[got]++
			if counts[got] > width {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFUPoolPipelinedCapacity(t *testing.T) {
	f := func(reqs []uint16) bool {
		pool := newFUPool(3, 1, true)
		counts := map[uint64]int{}
		for _, r := range reqs {
			at := pool.issue(uint64(r))
			if at < uint64(r) {
				return false
			}
			counts[at]++
			if counts[at] > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFUPoolOutOfOrderNoBlocking(t *testing.T) {
	pool := newFUPool(1, 1, true)
	late := pool.issue(1000)
	early := pool.issue(5)
	if late != 1000 || early != 5 {
		t.Errorf("calendar pool: late=%d early=%d", late, early)
	}
}

func TestFUPoolUnpipelined(t *testing.T) {
	pool := newFUPool(1, 18, false)
	a := pool.issue(0)
	b := pool.issue(0)
	if b < a+18-1 {
		t.Errorf("unpipelined second op at %d, want >= ~%d", b, a+17)
	}
}

func TestIssueQueueOccupancyProperty(t *testing.T) {
	f := func(issueDeltas []uint8) bool {
		const size = 8
		q := newIssueQueue(size)
		var disp uint64
		type ent struct{ disp, issue uint64 }
		var live []ent
		for _, d := range issueDeltas {
			disp = q.admit(disp)
			issue := disp + uint64(d%32) + 1
			q.record(issue)
			live = append(live, ent{disp, issue})
			// Invariant: at the moment `disp`, at most `size` previously
			// dispatched instructions have issue > disp (still queued).
			n := 0
			for _, e := range live[:len(live)-1] {
				if e.issue > disp {
					n++
				}
			}
			if n >= size+1 {
				return false
			}
			disp++
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStoreQueueLimit(t *testing.T) {
	// A store-heavy loop must respect SQ capacity; this is a smoke check
	// that the run completes and counts stores.
	p := buildLoop(func(b *isa.Builder) {
		b.Li(4, 1<<20)
		b.StoreIdx(4, 1, 0, 2)
	}, 3000)
	res := NewCore(DefaultConfig(), interp.New(p, interp.NewMemory())).Run(15_000)
	if res.Stores == 0 {
		t.Error("no stores counted")
	}
}

func TestResultMetrics(t *testing.T) {
	var r Result
	if r.IPC() != 0 || r.MLP() != 0 || r.LLCMPKI() != 0 || r.ROBStallFrac() != 0 || r.MispredictRate() != 0 {
		t.Error("zero-value Result must not divide by zero")
	}
	r.Instructions = 1000
	r.Cycles = 500
	if r.IPC() != 2.0 {
		t.Errorf("IPC = %f", r.IPC())
	}
}

func TestScaleBackend(t *testing.T) {
	c := DefaultConfig().ScaleBackend(512)
	if c.ROBSize != 512 {
		t.Errorf("ROB = %d", c.ROBSize)
	}
	if c.IQSize <= 128 || c.LQSize <= 128 || c.SQSize <= 72 {
		t.Errorf("backend not scaled up: IQ=%d LQ=%d SQ=%d", c.IQSize, c.LQSize, c.SQSize)
	}
	c = DefaultConfig().ScaleBackend(16)
	if c.IQSize < 8 || c.LQSize < 8 || c.SQSize < 8 {
		t.Errorf("backend floors violated: IQ=%d LQ=%d SQ=%d", c.IQSize, c.LQSize, c.SQSize)
	}
}

func TestHaltEndsRun(t *testing.T) {
	b := isa.NewBuilder("h")
	b.Nop()
	b.Nop()
	b.Halt()
	res := NewCore(DefaultConfig(), interp.New(b.MustBuild(), interp.NewMemory())).Run(1000)
	if res.Instructions != 3 {
		t.Errorf("instructions = %d, want 3", res.Instructions)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() Result {
		p := buildLoop(func(b *isa.Builder) {
			b.Hash(3, 1)
			b.AndI(3, 3, (1<<20)-1)
			b.Li(4, 1<<21)
			b.LoadIdx(5, 4, 3, 0)
		}, 2000)
		return NewCore(DefaultConfig(), interp.New(p, interp.NewMemory())).Run(10_000)
	}
	a, b := mk(), mk()
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions || a.Mem.TotalDRAM() != b.Mem.TotalDRAM() {
		t.Errorf("nondeterministic simulation: %+v vs %+v", a.Cycles, b.Cycles)
	}
}

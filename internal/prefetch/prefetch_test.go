package prefetch

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

// simpleIndirect builds `sum += B[A[i]]`, IMP's target pattern.
func simpleIndirect() (*isa.Program, *interp.Memory) {
	m := interp.NewMemory()
	for i := 0; i < 1<<16; i++ {
		m.Store64(uint64(0x100000+i*8), isa.Mix64(uint64(i))&((1<<18)-1))
	}
	b := isa.NewBuilder("si")
	b.Li(1, 0)
	b.Li(2, 1<<16)
	b.Li(3, 0x100000) // A
	b.Li(4, 0x900000) // B
	b.Label("top")
	b.LoadIdx(8, 3, 1, 0) // A[i]
	b.LoadIdx(9, 4, 8, 0) // B[A[i]]
	b.Add(10, 10, 9)
	b.AddI(1, 1, 1)
	b.Cmp(7, 1, 2)
	b.Br(isa.LT, 7, "top")
	b.Halt()
	return b.MustBuild(), m
}

// driveIMP runs the program functionally, feeding every load into the
// hierarchy (which invokes IMP's observer) at 3 cycles per instruction.
func driveIMP(t *testing.T, p *IMP, it *interp.Interp, h *mem.Hierarchy, n int) {
	t.Helper()
	var cyc uint64
	for i := 0; i < n; i++ {
		di, ok := it.Step()
		if !ok {
			break
		}
		cyc += 3
		if di.Inst.Op.IsLoad() {
			h.Access(di.Addr, cyc, false, di.PC)
		}
	}
}

func TestIMPDetectsSimpleIndirection(t *testing.T) {
	prog, m := simpleIndirect()
	h := testHier()
	p := NewIMP(h, m)
	it := interp.New(prog, m)
	driveIMP(t, p, it, h, 3000)
	if p.stats.Prefetches == 0 {
		t.Fatal("IMP never prefetched B[A[i]]")
	}
	// Confirmed pattern must carry the right base and coefficient.
	found := false
	for _, en := range p.order {
		if k, pat := en.impKey, en.impPattern; pat.Confirmed && k.Coeff == 8 && pat.Base == 0x900000 {
			found = true
		}
	}
	if !found {
		t.Error("no confirmed (base=B, coeff=8) pattern")
	}
	// The prefetches should cover upcoming B targets: resident check.
	iter := int(it.St.Regs[1])
	covered := 0
	for d := 1; d <= 8; d++ {
		idx := isa.Mix64(uint64(iter+d)) & ((1 << 18) - 1)
		if h.Resident(0x900000 + idx*8) {
			covered++
		}
	}
	if covered < 4 {
		t.Errorf("only %d/8 upcoming B targets resident", covered)
	}
}

func TestIMPIgnoresHashedIndirection(t *testing.T) {
	// Camel-style hashed index: no linear (base, coeff) pattern exists, so
	// IMP must not confirm one.
	m := interp.NewMemory()
	for i := 0; i < 1<<16; i++ {
		m.Store64(uint64(0x100000+i*8), uint64(i)*2654435761)
	}
	b := isa.NewBuilder("hash")
	b.Li(1, 0)
	b.Li(2, 1<<20)
	b.Li(3, 0x100000)
	b.Li(4, 0x900000)
	b.Li(11, 4095)
	b.Label("top")
	b.LoadIdx(8, 3, 1, 0)
	b.Hash(8, 8)
	b.Op3(isa.And, 8, 8, 11)
	b.LoadIdx(9, 4, 8, 0)
	b.AddI(1, 1, 1)
	b.Cmp(7, 1, 2)
	b.Br(isa.LT, 7, "top")
	b.Halt()
	h := testHier()
	p := NewIMP(h, m)
	it := interp.New(b.MustBuild(), m)
	driveIMP(t, p, it, h, 3000)
	for _, en := range p.order {
		if en.Confirmed {
			t.Errorf("spurious confirmed pattern %+v", en.impKey)
		}
	}
}

func TestOracleCoversLoads(t *testing.T) {
	prog, m := simpleIndirect()
	h := testHier()
	it := interp.New(prog, m)
	it.Run(6)
	o := NewOracle(it, h, 256)
	var cyc uint64
	late := 0
	for i := 0; i < 4000; i++ {
		di, ok := it.Step()
		if !ok {
			break
		}
		cyc += 3
		if di.Inst.Op.IsLoad() {
			res := h.Access(di.Addr, cyc, false, di.PC)
			if res.Level == mem.LvlMem {
				late++
			}
		}
		o.OnCommit(&di, cyc)
	}
	if o.stats.Prefetches == 0 {
		t.Fatal("oracle issued nothing")
	}
	// After warmup, nearly all demand loads should find their lines
	// prefetched (L1 hits or merges).
	if late > 200 {
		t.Errorf("%d demand loads still reached DRAM under the oracle", late)
	}
}

func TestOracleQueueBounded(t *testing.T) {
	prog, m := simpleIndirect()
	h := testHier()
	it := interp.New(prog, m)
	o := NewOracle(it, h, 100_000) // absurd lookahead
	di, _ := it.Step()
	o.OnCommit(&di, 1)
	if len(o.queue) > 4096 {
		t.Errorf("queue grew to %d", len(o.queue))
	}
}

func TestOracleRespectsFastForwardedFrontend(t *testing.T) {
	prog, m := simpleIndirect()
	h := testHier()
	it := interp.New(prog, m)
	it.Run(10_000) // fast-forward before attaching
	o := NewOracle(it, h, 64)
	var cyc uint64
	for i := 0; i < 100; i++ {
		di, ok := it.Step()
		if !ok {
			break
		}
		cyc += 3
		o.OnCommit(&di, cyc)
	}
	if o.stats.Prefetches == 0 {
		t.Error("oracle inert after fast-forward (lookahead accounting bug)")
	}
}

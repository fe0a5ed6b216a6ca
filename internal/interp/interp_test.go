package interp

import (
	"testing"
	"testing/quick"

	"dvr/internal/isa"
)

func run1(t *testing.T, build func(b *isa.Builder)) *Interp {
	t.Helper()
	b := isa.NewBuilder("t")
	build(b)
	b.Halt()
	it := New(b.MustBuild(), NewMemory())
	it.Run(0)
	return it
}

func TestArithmeticSemantics(t *testing.T) {
	f := func(x, y uint64) bool {
		b := isa.NewBuilder("t")
		b.Li(1, int64(x))
		b.Li(2, int64(y))
		b.Add(3, 1, 2)
		b.Sub(4, 1, 2)
		b.Mul(5, 1, 2)
		b.Op3(isa.And, 6, 1, 2)
		b.Op3(isa.Or, 7, 1, 2)
		b.Xor(8, 1, 2)
		b.Op3(isa.Div, 9, 1, 2)
		b.Halt()
		it := New(b.MustBuild(), NewMemory())
		it.Run(0)
		r := it.St.Regs
		div := uint64(0)
		if y != 0 {
			div = x / y
		}
		return r[3] == x+y && r[4] == x-y && r[5] == x*y &&
			r[6] == x&y && r[7] == x|y && r[8] == x^y && r[9] == div
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShiftSemantics(t *testing.T) {
	f := func(x uint64, s uint8) bool {
		sh := int64(s % 64)
		b := isa.NewBuilder("t")
		b.Li(1, int64(x))
		b.ShlI(2, 1, sh)
		b.ShrI(3, 1, sh)
		b.Halt()
		it := New(b.MustBuild(), NewMemory())
		it.Run(0)
		return it.St.Regs[2] == x<<uint(sh) && it.St.Regs[3] == x>>uint(sh)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCmpIsSignedDifference(t *testing.T) {
	it := run1(t, func(b *isa.Builder) {
		b.Li(1, 3)
		b.Li(2, 10)
		b.Cmp(3, 1, 2)
	})
	if int64(it.St.Regs[3]) != -7 {
		t.Errorf("cmp result = %d, want -7", int64(it.St.Regs[3]))
	}
}

func TestHashMatchesMix64(t *testing.T) {
	it := run1(t, func(b *isa.Builder) {
		b.Li(1, 12345)
		b.Hash(2, 1)
	})
	if it.St.Regs[2] != isa.Mix64(12345) {
		t.Error("Hash op disagrees with isa.Mix64")
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	b := isa.NewBuilder("t")
	b.Li(1, 1<<20)
	b.Li(2, 77)
	b.Store(1, 8, 2)
	b.Load(3, 1, 8)
	b.Halt()
	it := New(b.MustBuild(), NewMemory())
	it.Run(0)
	if it.St.Regs[3] != 77 {
		t.Errorf("load after store = %d, want 77", it.St.Regs[3])
	}
}

func TestLoadIdxAddressing(t *testing.T) {
	m := NewMemory()
	m.Store64(1<<20+5*8+16, 99)
	b := isa.NewBuilder("t")
	b.Li(1, 1<<20)
	b.Li(2, 5)
	b.LoadIdx(3, 1, 2, 16)
	b.Halt()
	it := New(b.MustBuild(), m)
	di, _ := it.Step() // li
	di, _ = it.Step()  // li
	di, _ = it.Step()  // loadx
	if di.Addr != 1<<20+5*8+16 {
		t.Errorf("loadx addr = %#x", di.Addr)
	}
	if it.St.Regs[3] != 99 {
		t.Errorf("loadx value = %d, want 99", it.St.Regs[3])
	}
}

func TestStoreIdxWritesDataFromDst(t *testing.T) {
	b := isa.NewBuilder("t")
	b.Li(1, 1<<20) // base
	b.Li(2, 3)     // idx
	b.Li(4, 55)    // data
	b.StoreIdx(1, 2, 0, 4)
	b.Halt()
	it := New(b.MustBuild(), NewMemory())
	it.Run(0)
	if got := it.Mem.Load64(1<<20 + 3*8); got != 55 {
		t.Errorf("storex wrote %d, want 55", got)
	}
}

func TestBranchTakenAndNotTaken(t *testing.T) {
	b := isa.NewBuilder("t")
	b.Li(1, 0)
	b.Label("top")
	b.AddI(1, 1, 1)
	b.CmpI(2, 1, 3)
	b.Br(isa.LT, 2, "top")
	b.Halt()
	it := New(b.MustBuild(), NewMemory())
	n := it.Run(0)
	if it.St.Regs[1] != 3 {
		t.Errorf("loop ran to r1=%d, want 3", it.St.Regs[1])
	}
	if n != 1+3*3+1 {
		t.Errorf("executed %d instructions, want 11", n)
	}
}

func TestDynInstBranchFields(t *testing.T) {
	b := isa.NewBuilder("t")
	b.Label("top")
	b.Li(1, 1)
	b.Br(isa.NE, 1, "top")
	it := New(b.MustBuild(), NewMemory())
	it.Step()
	di, ok := it.Step()
	if !ok || !di.Taken || di.NextPC != 0 {
		t.Errorf("branch DynInst = %+v", di)
	}
}

func TestHaltStopsExecution(t *testing.T) {
	b := isa.NewBuilder("t")
	b.Halt()
	b.Li(1, 9)
	it := New(b.MustBuild(), NewMemory())
	it.Run(0)
	if !it.St.Halted {
		t.Error("not halted")
	}
	if it.St.Regs[1] == 9 {
		t.Error("executed past halt")
	}
	if _, ok := it.Step(); ok {
		t.Error("Step after halt returned ok")
	}
}

func TestRunOffEndHalts(t *testing.T) {
	b := isa.NewBuilder("t")
	b.Nop()
	it := New(b.MustBuild(), NewMemory())
	if n := it.Run(10); n != 1 {
		t.Errorf("ran %d instructions, want 1", n)
	}
}

func TestRunMaxBound(t *testing.T) {
	b := isa.NewBuilder("t")
	b.Label("top")
	b.Jmp("top")
	it := New(b.MustBuild(), NewMemory())
	if n := it.Run(100); n != 100 {
		t.Errorf("ran %d, want 100", n)
	}
}

func TestCloneIsIndependentAndSuppressesStores(t *testing.T) {
	b := isa.NewBuilder("t")
	b.Li(1, 1<<20)
	b.Li(2, 1)
	b.Label("top")
	b.AddI(2, 2, 1)
	b.Store(1, 0, 2)
	b.Jmp("top")
	it := New(b.MustBuild(), NewMemory())
	it.Run(4) // li, li, add, store -> mem[1<<20]=2
	if got := it.Mem.Load64(1 << 20); got != 2 {
		t.Fatalf("mem = %d, want 2", got)
	}
	cl := it.Clone()
	cl.Run(6) // runs ahead; its stores must not touch memory
	if got := it.Mem.Load64(1 << 20); got != 2 {
		t.Errorf("clone store leaked: mem = %d, want 2", got)
	}
	if cl.St.Regs[2] == it.St.Regs[2] {
		t.Error("clone register state should have advanced independently")
	}
	if cl.Seq != it.Seq+6 {
		t.Errorf("clone Seq = %d, want %d", cl.Seq, it.Seq+6)
	}
}

func TestSeqNumbers(t *testing.T) {
	b := isa.NewBuilder("t")
	b.Nop()
	b.Nop()
	b.Halt()
	it := New(b.MustBuild(), NewMemory())
	d0, _ := it.Step()
	d1, _ := it.Step()
	if d0.Seq != 0 || d1.Seq != 1 {
		t.Errorf("seq = %d, %d", d0.Seq, d1.Seq)
	}
}

func TestMemoryZeroDefault(t *testing.T) {
	m := NewMemory()
	if m.Load64(0xdeadbeef00) != 0 {
		t.Error("uninitialized memory should read 0")
	}
}

func TestMemoryStoreSliceMatchesStore64(t *testing.T) {
	f := func(base32 uint32, vals []uint64) bool {
		if len(vals) > 4096 {
			vals = vals[:4096]
		}
		base := (uint64(base32) &^ 7) + 1<<16
		a, b := NewMemory(), NewMemory()
		a.StoreSlice(base, vals)
		for i, v := range vals {
			b.Store64(base+uint64(i)*8, v)
		}
		for i := range vals {
			if a.Load64(base+uint64(i)*8) != b.Load64(base+uint64(i)*8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryCrossPageSlice(t *testing.T) {
	m := NewMemory()
	base := uint64(1<<16 - 16) // straddles a 4K page boundary
	vals := []uint64{1, 2, 3, 4, 5}
	m.StoreSlice(base, vals)
	for i, v := range vals {
		if got := m.Load64(base + uint64(i)*8); got != v {
			t.Errorf("word %d = %d, want %d", i, got, v)
		}
	}
}

func TestFootprint(t *testing.T) {
	m := NewMemory()
	if m.Footprint() != 0 {
		t.Error("empty memory has nonzero footprint")
	}
	m.Store64(0, 1)
	m.Store64(1<<20, 1)
	if m.Footprint() != 2*4096 {
		t.Errorf("footprint = %d, want 8192", m.Footprint())
	}
}

// StepInto into a record still holding the previous instruction, RunWith
// and RunInto must all report exactly what Step reports, field for field,
// up to and including the halt.
func TestStepIntoAndRunLoopsMatchStep(t *testing.T) {
	prog := func() *Interp {
		b := isa.NewBuilder("mix")
		b.Li(1, 0)
		b.Li(3, 0x4000)
		b.Label("top")
		b.Hash(8, 1)
		b.AndI(8, 8, 63)
		b.StoreIdx(3, 8, 0, 1)
		b.LoadIdx(9, 3, 8, 0)
		b.AddI(1, 1, 1)
		b.CmpI(7, 1, 40)
		b.Br(isa.LT, 7, "top")
		b.Halt()
		return New(b.MustBuild(), NewMemory())
	}
	var want []DynInst
	for it := prog(); ; {
		di, ok := it.Step()
		if !ok {
			break
		}
		want = append(want, di)
	}
	if len(want) < 200 || want[len(want)-1].Inst.Op != isa.Halt {
		t.Fatalf("reference stream has %d instructions ending in %v", len(want), want[len(want)-1].Inst.Op)
	}

	into := prog()
	var di DynInst
	for i := range want {
		if !into.StepInto(&di) || di != want[i] {
			t.Fatalf("StepInto %d: got %+v, want %+v", i, di, want[i])
		}
	}
	last := di
	if into.StepInto(&di) || di != last {
		t.Error("StepInto past the halt reported an instruction or touched the record")
	}

	var byValue, byPtr []DynInst
	n1 := prog().RunWith(0, func(di DynInst) { byValue = append(byValue, di) })
	n2 := prog().RunInto(0, func(di *DynInst) { byPtr = append(byPtr, *di) })
	if n1 != uint64(len(want)) || n2 != uint64(len(want)) {
		t.Errorf("RunWith ran %d, RunInto %d, want %d", n1, n2, len(want))
	}
	for i := range want {
		if byValue[i] != want[i] || byPtr[i] != want[i] {
			t.Fatalf("instruction %d: RunWith %+v, RunInto %+v, want %+v", i, byValue[i], byPtr[i], want[i])
		}
	}
	if n := prog().RunInto(25, func(*DynInst) {}); n != 25 {
		t.Errorf("RunInto(25) ran %d", n)
	}
}

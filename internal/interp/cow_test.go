package interp

import (
	"sync"
	"testing"

	"dvr/internal/isa"
)

func TestForkReadsThroughAndCopiesOnWrite(t *testing.T) {
	base := NewMemory()
	base.Store64(0x1000, 7)
	base.Store64(0x200000, 9)

	f := base.Fork()
	if got := f.Load64(0x1000); got != 7 {
		t.Fatalf("fork read-through = %d, want 7", got)
	}
	f.Store64(0x1000, 42)
	if got := f.Load64(0x1000); got != 42 {
		t.Errorf("fork sees own store = %d, want 42", got)
	}
	if got := base.Load64(0x1000); got != 7 {
		t.Errorf("fork store leaked into base: %d, want 7", got)
	}
	// A write to an unrelated page must not copy the page at 0x200000.
	if got := f.Load64(0x200000); got != 9 {
		t.Errorf("untouched page through fork = %d, want 9", got)
	}
	// Writes to the same page as an inherited word keep the other words.
	f.Store64(0x1008, 1)
	if got := f.Load64(0x1000); got != 42 {
		t.Errorf("copied page lost fork's own word: %d", got)
	}
}

func TestForkSeesLaterBaseStoresUntilCopied(t *testing.T) {
	base := NewMemory()
	base.Store64(0x3000, 1)
	f := base.Fork()
	if got := f.Load64(0x3000); got != 1 {
		t.Fatalf("initial read-through = %d", got)
	}
	// Until the fork writes the page, the base image stays live through it
	// (the runahead subthread reads the image the main thread commits into).
	base.Store64(0x3000, 2)
	if got := f.Load64(0x3000); got != 2 {
		t.Errorf("fork should see live base store: got %d, want 2", got)
	}
	f.Store64(0x3008, 5)
	base.Store64(0x3000, 3)
	if got := f.Load64(0x3000); got != 2 {
		t.Errorf("after copy-on-write the fork must be isolated: got %d, want 2", got)
	}
}

func TestForkOfFork(t *testing.T) {
	base := NewMemory()
	base.Store64(0x5000, 11)
	f1 := base.Fork()
	f1.Store64(0x5008, 12)
	f2 := f1.Fork()
	if got := f2.Load64(0x5000); got != 11 {
		t.Errorf("grandchild read of base word = %d, want 11", got)
	}
	if got := f2.Load64(0x5008); got != 12 {
		t.Errorf("grandchild read of parent word = %d, want 12", got)
	}
	f2.Store64(0x5000, 13)
	if base.Load64(0x5000) != 11 || f1.Load64(0x5000) != 11 {
		t.Error("grandchild store leaked upward")
	}
}

// A load of an unmapped address reads zero without mapping anything, at
// every level of the table, and a store there afterwards is visible.
func TestBlockCreatedAfterZeroReadIsVisible(t *testing.T) {
	m := NewMemory()
	f := m.Fork()
	addrs := []uint64{0x7000, 5 << leafShift, farLimit - 8, farLimit, 1<<63 + 0x40}
	for _, addr := range addrs {
		if got := f.Load64(addr); got != 0 {
			t.Fatalf("absent %#x = %d", addr, got)
		}
		if fp := f.Footprint(); fp != 0 {
			t.Fatalf("a load of %#x mapped %d bytes", addr, fp)
		}
	}
	for i, addr := range addrs {
		m.Store64(addr, uint64(i+1))
		if got := m.Load64(addr); got != uint64(i+1) {
			t.Errorf("block created at %#x after a zero read is invisible: %d", addr, got)
		}
	}
}

// Addresses one block, one leaf and one directory's reach apart index
// different slots at some level of the table and must not alias.
func TestStridedAddressesDoNotAlias(t *testing.T) {
	m := NewMemory()
	a := uint64(0x1238)
	addrs := []uint64{a, a + 1<<blockShift, a + 1<<pageShift, a + 1<<leafShift, a + 2<<leafShift, a + farLimit, a + 2*farLimit, a + farLimit + 1<<leafShift}
	for i, addr := range addrs {
		m.Store64(addr, uint64(i+1))
	}
	f := m.Fork()
	f.Store64(a, 100)
	for round := 0; round < 2; round++ {
		for i, addr := range addrs {
			if got := m.Load64(addr); got != uint64(i+1) {
				t.Fatalf("round %d: %#x = %d, want %d", round, addr, got, i+1)
			}
			if got := f.Load64(addr); i > 0 && got != uint64(i+1) {
				t.Fatalf("round %d: %#x through the fork = %d, want %d", round, addr, got, i+1)
			}
		}
	}
}

// TestForkKeepsForkTimeContentsOfBlocksParentFirstWritesLater pins what a
// fork may rely on when its parent keeps writing (Fork's doc comment). The
// map-and-chain memory showed a fork every later store of its parent to a
// page the fork had not copied; the radix table shows it only the in-place
// ones. (A block the parent first writes inside a leaf it owns, while the
// fork still shares that leaf, does show through; nothing may depend on
// that, and nothing here tests it.)
func TestForkKeepsForkTimeContentsOfBlocksParentFirstWritesLater(t *testing.T) {
	const (
		a = 0x1000              // leaf 0, owned by the parent before the fork
		b = a + 4<<blockShift   // leaf 0, the root's block
		c = a + 9<<blockShift   // leaf 0, the child's scratch
		d = 1<<leafShift + 0x40 // leaf 1, the root's leaf
		e = 7<<leafShift + 0x40 // leaf 7, mapped by nobody
	)
	root := NewMemory()
	root.Store64(a, 1)
	root.Store64(b, 2)
	root.Store64(d, 3)
	p := root.Fork()
	p.Store64(a, 10)
	child := p.Fork()
	check := func(when string, addr, want uint64) {
		t.Helper()
		if got := child.Load64(addr); got != want {
			t.Errorf("%s: child reads %d at %#x, want %d", when, got, addr, want)
		}
	}

	p.Store64(a, 11)
	check("in-place store to a block the parent owned at the fork", a, 11)
	p.Store64(d, 30)
	check("first write into a leaf the parent did not own", d, 3)
	p.Store64(e, 50)
	check("first write into a leaf nobody had", e, 0)

	child.Store64(c, 5) // the child now has its own copy of leaf 0
	p.Store64(b, 20)
	check("first write to a block after the child copied the leaf", b, 2)
	p.Store64(a, 12)
	check("in-place store after the child copied the leaf", a, 12)

	child.Store64(a+8, 6) // and now its own copy of a's block
	p.Store64(a, 13)
	check("in-place store after the child copied the block", a, 12)
	for addr, want := range map[uint64]uint64{a: 13, b: 20, c: 0, d: 30, e: 50} {
		if got := p.Load64(addr); got != want {
			t.Errorf("parent reads %d at %#x, want %d", got, addr, want)
		}
	}
}

// TestConcurrentForksOfFrozenBase forks one frozen image from eight
// goroutines that each read through it and write their own copy. Run under
// -race: a fork must never write a leaf, block or directory it shares.
func TestConcurrentForksOfFrozenBase(t *testing.T) {
	base := NewMemory()
	vals := make([]uint64, 3<<(leafShift-3))
	for i := range vals {
		vals[i] = uint64(i)
	}
	base.StoreSlice(1<<20, vals)
	base.Store64(farLimit+8, 99)
	frozen := base.Fork() // a fork of a fork, as sampling's boundaries are
	frozen.Store64(1<<20, 1)

	var wg sync.WaitGroup
	for g := uint64(1); g <= 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				f := frozen.Fork()
				for i := uint64(0); i < uint64(len(vals)); i += 61 {
					addr := 1<<20 + i*8
					if got := f.Load64(addr); got != max(i, 1) {
						t.Errorf("goroutine %d: %#x = %d through a fresh fork, want %d", g, addr, got, max(i, 1))
						return
					}
					f.Store64(addr, g<<32|i)
				}
				f.Store64(farLimit+8, g)
				f.StoreSlice(1<<20+uint64(len(vals))*8-64, []uint64{g, g, g, g, g, g, g, g, g, g})
				for i := uint64(0); i < uint64(len(vals))-8; i += 61 {
					if got := f.Load64(1<<20 + i*8); got != g<<32|i {
						t.Errorf("goroutine %d: own store lost at word %d: %#x", g, i, got)
						return
					}
				}
				if f.Load64(farLimit+8) != g || f.Load64(1<<20+uint64(len(vals))*8) != g {
					t.Errorf("goroutine %d: far or slice store lost", g)
				}
			}
		}()
	}
	wg.Wait()
	if frozen.Load64(1<<20) != 1 || frozen.Load64(1<<20+61*8) != 61 || frozen.Load64(farLimit+8) != 99 {
		t.Error("a fork's store reached the frozen base")
	}
}

// TestCloneSeesOwnStores checks the architectural fidelity gained by the
// copy-on-write clone: a speculative store feeds the clone's own later
// loads (a dependent chain through memory) without touching the parent.
func TestCloneSeesOwnStores(t *testing.T) {
	b := isa.NewBuilder("t")
	b.Li(1, 1<<20)
	b.Li(2, 77)
	b.Store(1, 0, 2) // mem[1<<20] = 77
	b.Load(3, 1, 0)  // r3 = mem[1<<20]
	b.Halt()
	it := New(b.MustBuild(), NewMemory())
	it.Mem.Store64(1<<20, 5)
	cl := it.Clone()
	cl.Run(0)
	if got := cl.St.Regs[3]; got != 77 {
		t.Errorf("clone load after own store = %d, want 77", got)
	}
	if got := it.Mem.Load64(1 << 20); got != 5 {
		t.Errorf("clone store visible to parent: %d, want 5", got)
	}
}

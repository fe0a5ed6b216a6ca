// Package interp provides functional (architectural) execution of micro-ISA
// programs: a sparse 64-bit memory, the architectural register state, and a
// step interpreter that yields the dynamic instruction stream consumed by
// the timing models. Runahead engines clone interpreter state to pre-execute
// the future instruction stream speculatively.
package interp

import "slices"

// The radix table's geometry. The sizes are fixed by measurement (DESIGN.md,
// "Copy-on-write forks"), not options: 512-byte blocks were the fastest of
// 128 B / 512 B / 2 KiB / 4 KiB on both the exact and the sampled matrix.
const (
	blockShift = 9 // 512-byte copy-on-write blocks
	blockWords = 1 << (blockShift - 3)
	blockMask  = blockWords - 1

	leafShift  = 18 // a leaf maps 256 KiB
	leafBlocks = 1 << (leafShift - blockShift)
	leafMask   = leafBlocks - 1

	// farLimit bounds the directory (65536 leaf pointers at most). Addresses
	// at or above it are wild speculative ones and live in Memory.far.
	farLimit = 1 << 34
)

type block [blockWords]uint64

// leaf is the second level of the table: the blocks of one aligned 256 KiB
// region, and which of them its owner may write in place. A Memory that is
// not the owner reads through the leaf and copies it before its first store
// into the region.
type leaf struct {
	blocks [leafBlocks]*block
	owned  [leafBlocks / 64]uint64 // bit i: blocks[i] belongs to owner alone
	owner  *Memory
}

func (l *leaf) owns(bi uint64) bool { return l.owned[bi>>6]>>(bi&63)&1 != 0 }

// Memory is a sparse 64-bit-word memory. Addresses are byte addresses;
// accesses are 8-byte aligned (the low three address bits are ignored). The
// zero value is an empty memory where every word reads zero.
//
// It is a two-level radix table: dir[addr>>18] is a leaf, the leaf's
// blocks[addr>>9&511] a 64-word block, so a load is three dependent indexed
// loads whatever the memory's ancestry. A Memory may be a copy-on-write fork
// of another (see Fork). Forks share leaves and blocks but never write a
// shared one, so forks of one base may be used from different goroutines as
// long as the base itself is no longer written.
type Memory struct {
	dir  []*leaf
	base *Memory // copy-on-write parent; nil for a root memory
	// far holds the blocks this memory owns at or above farLimit, by block
	// number; a lookup that misses walks base. Nil until the first such store.
	far map[uint64]*block
	// run is the number of blocks the rest of the run StoreSlice is writing
	// spans, and spare what is left of the slab newBlock allocated for them.
	// Both are zero between calls.
	run   int
	spare []block
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

// Fork returns a copy-on-write view of m. It copies only the directory (one
// pointer per 256 KiB mapped); the fork's first store into a leaf copies the
// leaf, its first store into a block the 512-byte block, and its writes
// never reach m.
//
// A fork is neither a snapshot nor a live view of a parent that keeps
// writing. Stores m makes in place, to blocks it owned when it was forked,
// stay visible through the fork until the fork copies that block (the
// runahead subthread reads the image the main thread commits into). A block
// m first writes after the fork is a new copy on m's side: the fork keeps
// that block's contents of fork time, unless it still shares the leaf and m
// owns it, and callers must not depend on seeing such a store. The one
// long-lived clone, the Oracle's look-ahead thread, executes every store its
// parent later commits, so it owns each such block before the parent
// writes it.
func (m *Memory) Fork() *Memory { return &Memory{dir: slices.Clone(m.dir), base: m} }

// Load64 returns the 64-bit word at addr. An unmapped address reads zero
// and allocates nothing.
func (m *Memory) Load64(addr uint64) uint64 {
	if b := m.block(addr); b != nil {
		return b[addr>>3&blockMask]
	}
	return 0
}

// block returns the block m reads at addr, nil when nothing is mapped there.
func (m *Memory) block(addr uint64) *block {
	if li := addr >> leafShift; li < uint64(len(m.dir)) {
		if l := m.dir[li]; l != nil {
			return l.blocks[addr>>blockShift&leafMask]
		}
		return nil
	}
	return m.farBlock(addr)
}

// farBlock is block for an address beyond the directory: below farLimit
// nothing is mapped there, at or above it the nearest far map in the chain
// answers. It accepts a nil m (the parent view of a root memory).
func (m *Memory) farBlock(addr uint64) *block {
	if addr < farLimit {
		return nil
	}
	for ; m != nil; m = m.base {
		if b := m.far[addr>>blockShift]; b != nil {
			return b
		}
	}
	return nil
}

// Store64 writes the 64-bit word at addr.
func (m *Memory) Store64(addr, val uint64) {
	if li := addr >> leafShift; li < uint64(len(m.dir)) {
		if l, bi := m.dir[li], addr>>blockShift&leafMask; l != nil && l.owner == m && l.owns(bi) {
			l.blocks[bi][addr>>3&blockMask] = val
			return
		}
	}
	m.ownBlock(addr)[addr>>3&blockMask] = val
}

// ownBlock returns a writable block for addr: the one m already owns, or a
// private copy of (or a zero block in place of) the one it reads there,
// entered in a leaf that is m's own.
func (m *Memory) ownBlock(addr uint64) *block {
	if addr >= farLimit {
		bn := addr >> blockShift
		b := m.far[bn]
		if b == nil {
			if m.far == nil {
				m.far = make(map[uint64]*block)
			}
			b = m.newBlock(m.base.farBlock(addr))
			m.far[bn] = b
		}
		return b
	}
	li := addr >> leafShift
	if n := uint64(len(m.dir)); li >= n {
		m.dir = append(m.dir, make([]*leaf, li+1-n)...)
	}
	l := m.dir[li]
	if l == nil {
		l = &leaf{owner: m}
		m.dir[li] = l
	} else if l.owner != m {
		l = &leaf{blocks: l.blocks, owner: m}
		m.dir[li] = l
	}
	bi := addr >> blockShift & leafMask
	if !l.owns(bi) {
		l.blocks[bi] = m.newBlock(l.blocks[bi])
		l.owned[bi>>6] |= 1 << (bi & 63)
	}
	return l.blocks[bi]
}

// newBlock returns a fresh block holding a copy of from (zeros when nil).
// Inside StoreSlice the blocks come from one slab, so building an image
// makes one heap object per call, not one per block.
func (m *Memory) newBlock(from *block) *block {
	if len(m.spare) == 0 {
		m.spare = make([]block, max(m.run, 1))
	}
	b := &m.spare[0]
	m.spare = m.spare[1:]
	if from != nil {
		*b = *from
	}
	return b
}

// StoreSlice writes vals as consecutive 64-bit words starting at addr, a
// block at a time.
func (m *Memory) StoreSlice(addr uint64, vals []uint64) {
	for len(vals) > 0 {
		first := int(addr >> 3 & blockMask)
		m.run = (first + len(vals) + blockWords - 1) / blockWords
		n := copy(m.ownBlock(addr)[first:], vals)
		vals = vals[n:]
		addr += uint64(n) * 8
	}
	// A run that met blocks m already owned leaves slab unused; drop it.
	m.run, m.spare = 0, nil
}

// Footprint returns the number of bytes of memory touched, in 4 KiB pages
// (a page counts once any of its eight blocks is mapped), including what a
// fork inherits from its base.
func (m *Memory) Footprint() uint64 {
	var pages uint64
	for _, l := range m.dir {
		if l == nil {
			continue
		}
		for i := 0; i < leafBlocks; i += pageBlocks {
			if slices.ContainsFunc(l.blocks[i:i+pageBlocks], func(b *block) bool { return b != nil }) {
				pages++
			}
		}
	}
	far := make(map[uint64]struct{})
	for a := m; a != nil; a = a.base {
		for bn := range a.far {
			far[bn/pageBlocks] = struct{}{}
		}
	}
	return (pages + uint64(len(far))) << pageShift
}

// Package interp provides functional (architectural) execution of micro-ISA
// programs: a sparse 64-bit memory, the architectural register state, and a
// step interpreter that yields the dynamic instruction stream consumed by
// the timing models. Runahead engines clone interpreter state to pre-execute
// the future instruction stream speculatively.
package interp

import (
	"fmt"
	"slices"
	"sync/atomic"
)

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
	// forked is set once m has been forked: its leaves may then sit in a
	// fork's directory too, so Map refuses them.
	forked atomic.Bool
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
func (m *Memory) Fork() *Memory {
	// Stored once: runs on several goroutines fork one image base, and
	// would otherwise each write its cache line.
	if !m.forked.Load() {
		m.forked.Store(true)
	}
	return &Memory{dir: slices.Clone(m.dir), base: m}
}

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
			b = copyBlock(m.base.farBlock(addr))
			m.far[bn] = b
		}
		return b
	}
	l, bi := m.ownLeaf(addr>>leafShift), addr>>blockShift&leafMask
	if !l.owns(bi) {
		l.blocks[bi] = copyBlock(l.blocks[bi])
		l.owned[bi>>6] |= 1 << (bi & 63)
	}
	return l.blocks[bi]
}

// ownLeaf returns leaf li of m's directory as a leaf m owns, growing the
// directory, creating the leaf or copying a shared one as needed.
func (m *Memory) ownLeaf(li uint64) *leaf {
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
	return l
}

// copyBlock returns a fresh block holding a copy of from (zeros when nil).
func copyBlock(from *block) *block {
	b := new(block)
	if from != nil {
		*b = *from
	}
	return b
}

// mapSlab enters slab, a whole number of blocks, as the blocks m owns from
// the block-aligned addr on. Every one must be unmapped and below farLimit.
// A slab is one heap object however many blocks it holds.
func (m *Memory) mapSlab(addr uint64, slab []uint64) {
	for i := 0; i < len(slab); i += blockWords {
		a := addr + uint64(i)*8
		l, bi := m.ownLeaf(a>>leafShift), a>>blockShift&leafMask
		l.blocks[bi] = (*block)(slab[i : i+blockWords])
		l.owned[bi>>6] |= 1 << (bi & 63)
	}
}

// Map maps n fresh words at addr as one contiguous slab owned by m and
// returns them, zeroed, for the caller to fill in place: the way a
// workload image is built, without a store per word or a staging buffer.
// Words of the last block past n read zero. addr must be block-aligned
// (512 bytes) and every block the words span unmapped and below farLimit.
// Images are built before they are forked, so Map also refuses a leaf
// shared with a fork: one m reads through from its base, or any leaf m
// already has once m has been forked. Map panics on each of these.
func (m *Memory) Map(addr uint64, n int) []uint64 {
	const blockBytes = 1 << blockShift
	nb := (n + blockWords - 1) / blockWords
	end := addr + uint64(nb)*blockBytes
	if addr%blockBytes != 0 || end > farLimit || end < addr {
		panic(fmt.Sprintf("interp: Map of %d words at %#x: want a %d-byte aligned address and words below %#x", n, addr, blockBytes, uint64(farLimit)))
	}
	forked := m.forked.Load()
	for a := addr; a < end; a += blockBytes {
		li := a >> leafShift
		if li >= uint64(len(m.dir)) || m.dir[li] == nil {
			continue
		}
		if l := m.dir[li]; l.owner != m || forked {
			panic(fmt.Sprintf("interp: Map at %#x: the leaf is shared with a fork", a))
		} else if l.blocks[a>>blockShift&leafMask] != nil {
			panic(fmt.Sprintf("interp: Map at %#x: the block is already mapped", a))
		}
	}
	slab := make([]uint64, nb*blockWords)
	m.mapSlab(addr, slab)
	return slab[:n:n]
}

// StoreSlice writes vals as consecutive 64-bit words starting at addr, a
// block at a time. A run of blocks nothing maps yet is mapped as one slab.
func (m *Memory) StoreSlice(addr uint64, vals []uint64) {
	for len(vals) > 0 {
		first := int(addr >> 3 & blockMask)
		var dst []uint64
		if m.block(addr) == nil && addr < farLimit {
			base := addr &^ (1<<blockShift - 1)
			nb, span := 1, (first+len(vals)+blockWords-1)/blockWords
			for ; nb < span; nb++ {
				if a := base + uint64(nb)<<blockShift; a >= farLimit || m.block(a) != nil {
					break
				}
			}
			dst = make([]uint64, nb*blockWords)
			m.mapSlab(base, dst)
		} else {
			dst = m.ownBlock(addr)[:]
		}
		n := copy(dst[first:], vals)
		vals = vals[n:]
		addr += uint64(n) * 8
	}
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

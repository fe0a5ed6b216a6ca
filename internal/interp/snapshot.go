package interp

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"dvr/internal/isa"
)

// pageShift and pageWords fix the PageDelta wire unit: a 4 KiB page, eight
// copy-on-write blocks. The unit predates the block size and stays as it is
// so checkpoints written before the radix table still load.
const (
	pageShift  = 12
	pageWords  = 1 << (pageShift - 3)
	pageBlocks = 1 << (pageShift - blockShift)
)

// wordRecBytes is the size of one packed word record in PageDelta.Data:
// a uint16 word index within the page, then the uint64 value.
const wordRecBytes = 10

// PageDelta is one 4 KiB page of a Memory in serializable form: the page
// number plus packed little-endian (index, value) records, ascending by
// index, for exactly the words of the blocks the memory owns that differ
// from what its base reads there (all zeros when the base maps nothing). A
// checkpoint therefore costs the words a run changed, not the pages it
// touched: a one-word page is 10 bytes and a fully rewritten one 5120
// (1.25x the dense page). JSON encodes Data as base64.
type PageDelta struct {
	PN   uint64 `json:"pn"`
	Data []byte `json:"data"`
}

var zeroBlock block

// SnapshotPages captures the blocks m owns as word deltas against its
// base's current view, ascending by page number so the encoding is
// deterministic. Pages that read the same as the base are omitted. The
// checkpoint contract is that the base is rebuilt to the same contents
// first — a workload image from its description, a cloned interpreter's
// parent by restoring the parent before the clone — and the delta is
// replayed on a fresh fork of it.
func (m *Memory) SnapshotPages() []PageDelta {
	var (
		deltas []PageDelta
		recs   []byte // every page's records, back to back
		ends   []int  // where each page's records end in recs
	)
	// diff appends block bn's changed words; calls come in ascending bn.
	diff := func(bn uint64, b *block) {
		parent := &zeroBlock
		if m.base != nil {
			if b := m.base.block(bn << blockShift); b != nil {
				parent = b
			}
		}
		pn := bn / pageBlocks
		first := int(bn%pageBlocks) * blockWords // the block's first word within its page
		for i, w := range b {
			if w == parent[i] {
				continue
			}
			if len(deltas) == 0 || deltas[len(deltas)-1].PN != pn {
				deltas = append(deltas, PageDelta{PN: pn})
				ends = append(ends, 0)
			}
			recs = binary.LittleEndian.AppendUint16(recs, uint16(first+i))
			recs = binary.LittleEndian.AppendUint64(recs, w)
			ends[len(ends)-1] = len(recs)
		}
	}
	for li, l := range m.dir {
		if l == nil || l.owner != m {
			continue
		}
		for wi, set := range l.owned {
			for ; set != 0; set &= set - 1 {
				bi := wi*64 + bits.TrailingZeros64(set)
				diff(uint64(li)<<(leafShift-blockShift)|uint64(bi), l.blocks[bi])
			}
		}
	}
	far := make([]uint64, 0, len(m.far))
	for bn := range m.far {
		far = append(far, bn)
	}
	slices.Sort(far)
	for _, bn := range far {
		diff(bn, m.far[bn])
	}
	start := 0
	for i, end := range ends {
		deltas[i].Data = recs[start:end:end]
		start = end
	}
	return deltas
}

// RestorePages makes m a fresh fork of its base (an empty memory for a
// root) and applies deltas to it. Restoring over a base that reads as it
// did when the snapshot was taken reproduces the snapshotted memory
// exactly. Pages must be strictly ascending and each page's records
// strictly ascending by index, so a malformed delta is an error rather
// than a last-wins.
func (m *Memory) RestorePages(deltas []PageDelta) error {
	m.dir, m.far = nil, nil
	if m.base != nil {
		m.dir = slices.Clone(m.base.dir)
	}
	for i, d := range deltas {
		if i > 0 && d.PN <= deltas[i-1].PN {
			return fmt.Errorf("interp: page %#x follows page %#x, want strictly ascending", d.PN, deltas[i-1].PN)
		}
		if d.PN >= 1<<(64-pageShift) {
			return fmt.Errorf("interp: page %#x is beyond the address space", d.PN)
		}
		if len(d.Data) == 0 || len(d.Data)%wordRecBytes != 0 {
			return fmt.Errorf("interp: page %#x has %d bytes, want a positive multiple of %d", d.PN, len(d.Data), wordRecBytes)
		}
		prev := -1
		for rec := d.Data; len(rec) > 0; rec = rec[wordRecBytes:] {
			idx := int(binary.LittleEndian.Uint16(rec))
			if idx <= prev || idx >= pageWords {
				return fmt.Errorf("interp: page %#x has word index %d after %d, want ascending below %d", d.PN, idx, prev, pageWords)
			}
			m.Store64(d.PN<<pageShift|uint64(idx)<<3, binary.LittleEndian.Uint64(rec[2:]))
			prev = idx
		}
	}
	return nil
}

// Snapshot is the serializable state of an interpreter: architectural
// registers plus the memory delta of its (forked) image.
type Snapshot struct {
	Regs   [isa.NumRegs]uint64 `json:"regs"`
	PC     int                 `json:"pc"`
	Halted bool                `json:"halted,omitempty"`
	Seq    uint64              `json:"seq"`
	Pages  []PageDelta         `json:"pages,omitempty"`
}

// Snapshot captures the interpreter's architectural state and owned memory
// pages.
func (it *Interp) Snapshot() Snapshot {
	return Snapshot{
		Regs:   it.St.Regs,
		PC:     it.St.PC,
		Halted: it.St.Halted,
		Seq:    it.Seq,
		Pages:  it.Mem.SnapshotPages(),
	}
}

// Restore overwrites the interpreter's architectural state and its
// memory's owned pages from s. The interpreter must already be attached to
// the same program and the same (freshly re-forked) base image the
// snapshot was taken over.
func (it *Interp) Restore(s Snapshot) error {
	if err := it.Mem.RestorePages(s.Pages); err != nil {
		return err
	}
	it.St.Regs = s.Regs
	it.St.PC = s.PC
	it.St.Halted = s.Halted
	it.Seq = s.Seq
	return nil
}

package interp

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"dvr/internal/isa"
)

// wordRecBytes is the size of one packed word record in PageDelta.Data:
// a uint16 word index within the page, then the uint64 value.
const wordRecBytes = 10

// PageDelta is one owned page of a Memory in serializable form: the page
// number plus packed little-endian (index, value) records, ascending by
// index, for exactly the words that differ from what the memory would read
// through its base chain (all zeros when no ancestor holds the page). A
// checkpoint therefore costs the words a run changed, not the pages it
// touched: a one-word page is 10 bytes and a fully rewritten one 5120
// (1.25x the dense page). JSON encodes Data as base64.
type PageDelta struct {
	PN   uint64 `json:"pn"`
	Data []byte `json:"data"`
}

var zeroPage page

// SnapshotPages captures m's owned pages as word deltas against its base
// chain, sorted by page number so the encoding is deterministic. Owned
// pages that read the same as the base are omitted. The checkpoint
// contract is that the base is rebuilt to the same contents first — a
// workload image from its description, a cloned interpreter's parent by
// restoring the parent before the clone — and the delta is replayed on a
// fresh fork of it.
func (m *Memory) SnapshotPages() []PageDelta {
	var deltas []PageDelta
	for pn, p := range m.pages {
		parent := m.parentPage(pn)
		var data []byte
		for i, w := range p {
			if w != parent[i] {
				data = binary.LittleEndian.AppendUint16(data, uint16(i))
				data = binary.LittleEndian.AppendUint64(data, w)
			}
		}
		if data != nil {
			deltas = append(deltas, PageDelta{PN: pn, Data: data})
		}
	}
	slices.SortFunc(deltas, func(a, b PageDelta) int { return cmp.Compare(a.PN, b.PN) })
	return deltas
}

// parentPage is the page a fork reads at pn before it owns one.
func (m *Memory) parentPage(pn uint64) *page {
	if m.base != nil {
		if p, _ := m.base.find(pn); p != nil {
			return p
		}
	}
	return &zeroPage
}

// RestorePages replaces m's owned pages with deltas, each page starting
// from the base chain's current view of it, and invalidates the TLB.
// Restoring onto a fresh fork of a base that reads as it did when the
// snapshot was taken reproduces the snapshotted memory exactly. Pages
// must be strictly ascending and each page's records strictly ascending
// by index, so a malformed delta is an error rather than a last-wins.
func (m *Memory) RestorePages(deltas []PageDelta) error {
	if m.pages == nil {
		m.pages = make(map[uint64]*page, len(deltas))
	} else {
		clear(m.pages)
	}
	m.tlb = [tlbSize]tlbEntry{}
	for i, d := range deltas {
		if i > 0 && d.PN <= deltas[i-1].PN {
			return fmt.Errorf("interp: page %#x follows page %#x, want strictly ascending", d.PN, deltas[i-1].PN)
		}
		if len(d.Data) == 0 || len(d.Data)%wordRecBytes != 0 {
			return fmt.Errorf("interp: page %#x has %d bytes, want a positive multiple of %d", d.PN, len(d.Data), wordRecBytes)
		}
		p := new(page)
		*p = *m.parentPage(d.PN)
		prev := -1
		for rec := d.Data; len(rec) > 0; rec = rec[wordRecBytes:] {
			idx := int(binary.LittleEndian.Uint16(rec))
			if idx <= prev || idx >= pageWords {
				return fmt.Errorf("interp: page %#x has word index %d after %d, want ascending below %d", d.PN, idx, prev, pageWords)
			}
			p[idx] = binary.LittleEndian.Uint64(rec[2:])
			prev = idx
		}
		m.pages[d.PN] = p
	}
	return nil
}

// Snapshot is the serializable state of an interpreter: architectural
// registers plus the memory delta of its (forked) image.
type Snapshot struct {
	Regs           [isa.NumRegs]uint64 `json:"regs"`
	PC             int                 `json:"pc"`
	Halted         bool                `json:"halted,omitempty"`
	Seq            uint64              `json:"seq"`
	SuppressStores bool                `json:"suppress_stores,omitempty"`
	Pages          []PageDelta         `json:"pages,omitempty"`
}

// Snapshot captures the interpreter's architectural state and owned memory
// pages.
func (it *Interp) Snapshot() Snapshot {
	return Snapshot{
		Regs:           it.St.Regs,
		PC:             it.St.PC,
		Halted:         it.St.Halted,
		Seq:            it.Seq,
		SuppressStores: it.SuppressStores,
		Pages:          it.Mem.SnapshotPages(),
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
	it.SuppressStores = s.SuppressStores
	return nil
}

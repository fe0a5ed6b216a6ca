package interp

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// refMemory is the Memory this package had before the radix table, kept as
// the reference the table is tested against: a map of 4 KiB pages per
// memory and a walk of the base chain on every access. Its direct-mapped
// translation cache is left out; it only remembered what find returns.
type refMemory struct {
	pages map[uint64]*refPage
	base  *refMemory
}

type refPage [pageWords]uint64

const refPageMask = 1<<pageShift - 1

func (m *refMemory) Fork() *refMemory { return &refMemory{base: m} }

func (m *refMemory) find(pn uint64) (p *refPage, owned bool) {
	if p, ok := m.pages[pn]; ok {
		return p, true
	}
	for b := m.base; b != nil; b = b.base {
		if p, ok := b.pages[pn]; ok {
			return p, false
		}
	}
	return nil, false
}

func (m *refMemory) Load64(addr uint64) uint64 {
	if p, _ := m.find(addr >> pageShift); p != nil {
		return p[(addr&refPageMask)>>3]
	}
	return 0
}

func (m *refMemory) Store64(addr, val uint64) {
	m.ownPage(addr >> pageShift)[(addr&refPageMask)>>3] = val
}

func (m *refMemory) ownPage(pn uint64) *refPage {
	if m.pages == nil {
		m.pages = make(map[uint64]*refPage)
	}
	p, owned := m.find(pn)
	switch {
	case p == nil:
		p = new(refPage)
		m.pages[pn] = p
	case !owned:
		cp := new(refPage)
		*cp = *p
		m.pages[pn] = cp
		p = cp
	}
	return p
}

func (m *refMemory) StoreSlice(addr uint64, vals []uint64) {
	for len(vals) > 0 {
		p := m.ownPage(addr >> pageShift)
		n := copy(p[(addr&refPageMask)>>3:], vals)
		vals = vals[n:]
		addr += uint64(n) * 8
	}
}

func (m *refMemory) Footprint() uint64 {
	seen := make(map[uint64]struct{})
	for b := m; b != nil; b = b.base {
		for pn := range b.pages {
			seen[pn] = struct{}{}
		}
	}
	return uint64(len(seen)) << pageShift
}

var refZeroPage refPage

func (m *refMemory) parentPage(pn uint64) *refPage {
	if m.base != nil {
		if p, _ := m.base.find(pn); p != nil {
			return p
		}
	}
	return &refZeroPage
}

func (m *refMemory) SnapshotPages() []PageDelta {
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

func (m *refMemory) RestorePages(deltas []PageDelta) error {
	m.pages = make(map[uint64]*refPage, len(deltas))
	for i, d := range deltas {
		if i > 0 && d.PN <= deltas[i-1].PN {
			return fmt.Errorf("page %#x follows page %#x", d.PN, deltas[i-1].PN)
		}
		if len(d.Data) == 0 || len(d.Data)%wordRecBytes != 0 {
			return fmt.Errorf("page %#x has %d bytes", d.PN, len(d.Data))
		}
		p := new(refPage)
		*p = *m.parentPage(d.PN)
		prev := -1
		for rec := d.Data; len(rec) > 0; rec = rec[wordRecBytes:] {
			idx := int(binary.LittleEndian.Uint16(rec))
			if idx <= prev || idx >= pageWords {
				return fmt.Errorf("page %#x has word index %d after %d", d.PN, idx, prev)
			}
			p[idx] = binary.LittleEndian.Uint64(rec[2:])
			prev = idx
		}
		m.pages[d.PN] = p
	}
	return nil
}

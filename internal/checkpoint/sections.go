package checkpoint

import (
	"encoding/binary"
	"fmt"

	"dvr/internal/interp"
)

// A v4 checkpoint keeps the state that is already packed bytes out of its
// JSON: base64 would grow it by a third and cost more to encode than
// everything else. After the JSON come, in walk's order:
//
//	L1D, L2 and L3 ways, the bimodal table, each tagged table   a section each
//	the page count, then per page its number and its records    uvarint, then uvarint + section
//
// where a section is a uvarint length and that many bytes.

// sectionMode says what one walk over a State does.
type sectionMode int

const (
	measure sectionMode = iota // add up an upper bound on the bytes a write appends
	write                      // append each field to buf
	read                       // fill each field from buf, consuming it
)

// sections is the cursor of one walk.
type sections struct {
	mode sectionMode
	buf  []byte
	size int // measure: the bound so far
	n    int // fields walked, for errors
}

// walk visits every packed field of st in the one order Encode writes and
// Decode reads them. Reading, it stops at the first malformed field.
func walk(st *State, s *sections) error {
	core := &st.Core
	for _, b := range []*[]byte{&core.Hier.L1D.Ways, &core.Hier.L2.Ways, &core.Hier.L3.Ways, &core.Bpred.Bimodal} {
		if err := s.bytes(b); err != nil {
			return err
		}
	}
	for i := range core.Bpred.Tables {
		if err := s.bytes(&core.Bpred.Tables[i]); err != nil {
			return err
		}
	}
	pages := &core.Frontend.Pages
	if s.mode == read && len(*pages) != 0 {
		return fmt.Errorf("pages are also inline in the JSON")
	}
	n := uint64(len(*pages))
	if err := s.number(&n); err != nil {
		return err
	}
	if s.mode == read && n > 0 {
		// A page takes at least two bytes, its number and its length, which
		// bounds what a hostile count can allocate.
		if n > uint64(len(s.buf)/2) {
			return fmt.Errorf("%d pages, only %d bytes follow", n, len(s.buf))
		}
		*pages = make([]interp.PageDelta, n)
	}
	for i := range *pages {
		p := &(*pages)[i]
		if err := s.number(&p.PN); err != nil {
			return err
		}
		if err := s.bytes(&p.Data); err != nil {
			return err
		}
	}
	return nil
}

// bytes walks one section.
func (s *sections) bytes(b *[]byte) error {
	switch s.mode {
	case measure:
		s.size += binary.MaxVarintLen64 + len(*b)
		return nil
	case write:
		s.buf = binary.AppendUvarint(s.buf, uint64(len(*b)))
		s.buf = append(s.buf, *b...)
		return nil
	}
	if len(*b) != 0 {
		return fmt.Errorf("section %d is also inline in the JSON", s.n+1)
	}
	size, err := s.uvarint()
	if err != nil {
		return err
	}
	if size > uint64(len(s.buf)) {
		return fmt.Errorf("section %d is %d bytes, only %d follow", s.n, size, len(s.buf))
	}
	if size > 0 {
		*b = s.buf[:size:size]
	}
	s.buf = s.buf[size:]
	return nil
}

// number walks one uvarint.
func (s *sections) number(v *uint64) error {
	switch s.mode {
	case measure:
		s.size += binary.MaxVarintLen64
		return nil
	case write:
		s.buf = binary.AppendUvarint(s.buf, *v)
		return nil
	}
	var err error
	*v, err = s.uvarint()
	return err
}

// uvarint consumes the next field's leading uvarint.
func (s *sections) uvarint() (uint64, error) {
	s.n++
	if len(s.buf) == 0 {
		return 0, fmt.Errorf("section %d is missing", s.n)
	}
	v, k := binary.Uvarint(s.buf)
	if k <= 0 {
		return 0, fmt.Errorf("section %d has a malformed length", s.n)
	}
	s.buf = s.buf[k:]
	return v, nil
}

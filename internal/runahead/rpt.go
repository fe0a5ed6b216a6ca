package runahead

import "fmt"

// RPTEntry is one entry of the Reference Prediction Table (stride
// detector): per §4.4 it holds the load PC, the previous address, the
// stride, a 2-bit saturating confidence counter and an innermost bit.
type RPTEntry struct {
	PC        int    `json:"pc"`
	Valid     bool   `json:"v,omitempty"`
	PrevAddr  uint64 `json:"a"`
	Stride    int64  `json:"st"`
	Conf      uint8  `json:"c"` // 2-bit saturating
	Innermost bool   `json:"in,omitempty"`
	LastUse   uint64 `json:"u"` // Clock at the last access: the LRU stamp
}

// Confident reports whether the entry has a stable non-zero stride.
func (e *RPTEntry) Confident() bool { return e.Valid && e.Conf >= 2 && e.Stride != 0 }

// RPT is the 32-entry stride detector, trained on the committed load
// stream; it identifies striding loads and their strides, the trigger for
// Discovery Mode and for Vector Runahead's speculative vectorization.
// Its JSON encoding is the checkpoint form.
type RPT struct {
	Entries []RPTEntry `json:"entries"`
	Clock   uint64     `json:"clock"`
}

// NewRPT returns a stride detector with n entries (the paper uses 32).
func NewRPT(n int) *RPT {
	return &RPT{Entries: make([]RPTEntry, n)}
}

// Restore overwrites the table with a checkpointed one, which must have
// the table's configured size.
func (t *RPT) Restore(s RPT) error {
	if len(s.Entries) != len(t.Entries) {
		return fmt.Errorf("runahead: snapshot has %d RPT entries, table has %d", len(s.Entries), len(t.Entries))
	}
	*t = s
	return nil
}

// Observe trains the detector with a committed load (pc, addr). It returns
// the entry for pc after training, which is Confident once the same stride
// repeats.
func (t *RPT) Observe(pc int, addr uint64) *RPTEntry {
	t.Clock++
	e := t.Lookup(pc)
	if e == nil {
		// A new entry replaces the last invalid one, else the least
		// recently used.
		victim := 0
		for i := range t.Entries {
			if !t.Entries[i].Valid {
				victim = i
			} else if t.Entries[victim].Valid && t.Entries[i].LastUse < t.Entries[victim].LastUse {
				victim = i
			}
		}
		t.Entries[victim] = RPTEntry{PC: pc, Valid: true, PrevAddr: addr, LastUse: t.Clock}
		return &t.Entries[victim]
	}
	e.LastUse = t.Clock
	stride := int64(addr) - int64(e.PrevAddr)
	e.PrevAddr = addr
	switch {
	case stride == 0:
		// repeated address: no information
	case stride == e.Stride:
		if e.Conf < 3 {
			e.Conf++
		}
	default:
		if e.Conf > 0 {
			e.Conf--
		} else {
			e.Stride = stride
		}
	}
	return e
}

// Lookup returns the entry for pc, or nil.
func (t *RPT) Lookup(pc int) *RPTEntry {
	for i := range t.Entries {
		if t.Entries[i].PC == pc && t.Entries[i].Valid {
			return &t.Entries[i]
		}
	}
	return nil
}

// LastConfident returns the most recently used confident entry, or nil.
func (t *RPT) LastConfident() *RPTEntry {
	var best *RPTEntry
	for i := range t.Entries {
		e := &t.Entries[i]
		if e.Confident() && (best == nil || e.LastUse > best.LastUse) {
			best = e
		}
	}
	return best
}

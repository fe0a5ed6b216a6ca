package mem

import "slices"

// mshrFile models the L1-D miss status holding registers: a bounded set of
// outstanding line misses. Misses to a line already outstanding merge into
// the existing entry (no new MSHR). When all MSHRs are busy, a new miss
// must wait until the earliest outstanding fill returns; prefetch sources
// may instead be dropped by the caller.
//
// The file is a flat slice scanned linearly: at realistic capacities
// (tens of entries) that beats a map on the per-access hot path and, with
// the reusable scratch slice in freeAt, the whole structure allocates
// nothing per call after construction.
type mshrFile struct {
	cap     int
	entries []mshrSlot

	// occupancy integration for MLP statistics: sum over entries of their
	// in-flight duration, accumulated at retirement.
	busyCycles uint64

	scratch []uint64 // reused by freeAt
}

type mshrSlot struct {
	line uint64
	e    mshrEntry
}

type mshrEntry struct {
	done  uint64
	start uint64
	src   Source
}

func newMSHRFile(capacity int) *mshrFile {
	// The Oracle source may overshoot the capacity (it is explicitly not
	// MSHR-constrained), so the backing array is a starting size, not a
	// bound.
	return &mshrFile{
		cap:     capacity,
		entries: make([]mshrSlot, 0, capacity+8),
		scratch: make([]uint64, 0, capacity+8),
	}
}

// retire drops entries whose fills have arrived by cycle now.
func (m *mshrFile) retire(now uint64) {
	for i := 0; i < len(m.entries); {
		if e := m.entries[i].e; e.done <= now {
			m.busyCycles += e.done - e.start
			last := len(m.entries) - 1
			m.entries[i] = m.entries[last]
			m.entries = m.entries[:last]
		} else {
			i++
		}
	}
}

// lookup returns the outstanding entry for line, if any.
func (m *mshrFile) lookup(line uint64) (mshrEntry, bool) {
	for i := range m.entries {
		if m.entries[i].line == line {
			return m.entries[i].e, true
		}
	}
	return mshrEntry{}, false
}

// set overwrites (or records) the outstanding entry for line.
func (m *mshrFile) set(line uint64, e mshrEntry) {
	for i := range m.entries {
		if m.entries[i].line == line {
			m.entries[i].e = e
			return
		}
	}
	m.entries = append(m.entries, mshrSlot{line: line, e: e})
}

// full reports whether fewer than `reserve`+1 MSHRs are free at cycle now.
// Prefetch sources pass a nonzero reserve so a few MSHRs always remain for
// demand misses.
func (m *mshrFile) full(now uint64, reserve int) bool {
	m.retire(now)
	return len(m.entries) >= m.cap-reserve
}

// freeAt returns the first cycle >= now at which occupancy drops below
// cap-reserve.
func (m *mshrFile) freeAt(now uint64, reserve int) uint64 {
	m.retire(now)
	need := len(m.entries) - (m.cap - reserve) + 1
	if need <= 0 {
		return now
	}
	dones := m.scratch[:0]
	for i := range m.entries {
		dones = append(dones, m.entries[i].e.done)
	}
	m.scratch = dones
	slices.Sort(dones)
	if need > len(dones) {
		need = len(dones)
	}
	if need == 0 {
		return now
	}
	return dones[need-1]
}

// allocate records a new outstanding miss for line completing at done.
func (m *mshrFile) allocate(line uint64, start, done uint64, src Source) {
	m.set(line, mshrEntry{done: done, start: start, src: src})
}

// occupancyAt counts entries still in flight at cycle now WITHOUT retiring
// anything. Trace sampling must not call retire: lookup treats any resident
// entry as pending regardless of its done cycle, and access timestamps can
// run behind the commit cycle a sampler observes, so an extra retire here
// would change prefetch-drop decisions and break traced/untraced
// bit-identity.
func (m *mshrFile) occupancyAt(now uint64) int {
	n := 0
	for i := range m.entries {
		if m.entries[i].e.done > now {
			n++
		}
	}
	return n
}

// busyAt returns the occupancy integral through cycle now without mutating
// the file: cycles accumulated by past retirements plus the portion of each
// resident entry's in-flight window that falls at or before now.
func (m *mshrFile) busyAt(now uint64) uint64 {
	total := m.busyCycles
	for i := range m.entries {
		e := m.entries[i].e
		end := e.done
		if end > now {
			end = now
		}
		if end > e.start {
			total += end - e.start
		}
	}
	return total
}

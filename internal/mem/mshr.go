package mem

import "slices"

// mshrFile models the L1-D miss status holding registers: a bounded set of
// outstanding line misses. Misses to a line already outstanding merge into
// the existing entry (no new MSHR). When all MSHRs are busy, a new miss
// must wait until the earliest outstanding fill returns; prefetch sources
// may instead be dropped by the caller.
//
// The file is two parallel slices scanned linearly: at realistic
// capacities (tens of entries) that beats a map on the per-access hot
// path, and keeping the lines apart from the entries makes the probe of
// every access a scan of one dense array. With the reusable scratch slice
// in freeAt, the structure allocates nothing per call after construction.
type mshrFile struct {
	cap   int
	lines []uint64    // lines[i] is outstanding as ents[i]
	ents  []mshrEntry // in allocation order, except where retire swaps

	// occupancy integration for MLP statistics: sum over entries of their
	// in-flight duration, accumulated at retirement.
	busyCycles uint64

	scratch []uint64 // reused by freeAt
}

type mshrEntry struct {
	done  uint64
	start uint64
	src   Source
}

func newMSHRFile(capacity int) mshrFile {
	// The Oracle source may overshoot the capacity (it is explicitly not
	// MSHR-constrained), so the backing arrays are a starting size, not a
	// bound.
	return mshrFile{
		cap:     capacity,
		lines:   make([]uint64, 0, capacity+8),
		ents:    make([]mshrEntry, 0, capacity+8),
		scratch: make([]uint64, 0, capacity+8),
	}
}

// retire drops entries whose fills have arrived by cycle now.
func (m *mshrFile) retire(now uint64) {
	for i := 0; i < len(m.ents); {
		if e := m.ents[i]; e.done <= now {
			m.busyCycles += e.done - e.start
			m.remove(i)
		} else {
			i++
		}
	}
}

// remove deletes entry i, moving the last entry into its place.
func (m *mshrFile) remove(i int) {
	last := len(m.ents) - 1
	m.lines[i], m.ents[i] = m.lines[last], m.ents[last]
	m.lines, m.ents = m.lines[:last], m.ents[:last]
}

// find returns the index of line's outstanding entry, or -1.
func (m *mshrFile) find(line uint64) int {
	for i, l := range m.lines {
		if l == line {
			return i
		}
	}
	return -1
}

// full reports whether fewer than `reserve`+1 MSHRs are free at cycle now.
// Prefetch sources pass a nonzero reserve so a few MSHRs always remain for
// demand misses.
func (m *mshrFile) full(now uint64, reserve int) bool {
	m.retire(now)
	return len(m.ents) >= m.cap-reserve
}

// freeAt returns the first cycle >= now at which occupancy drops below
// cap-reserve.
func (m *mshrFile) freeAt(now uint64, reserve int) uint64 {
	m.retire(now)
	need := len(m.ents) - (m.cap - reserve) + 1
	if need <= 0 {
		return now
	}
	dones := m.scratch[:0]
	for i := range m.ents {
		dones = append(dones, m.ents[i].done)
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
// held says line had an entry when the access began: one that has arrived
// or that the miss overtook. If no retire has dropped it since, it is
// overwritten in place; otherwise, and without held, the entry is
// appended, with no probe.
func (m *mshrFile) allocate(line uint64, start, done uint64, src Source, held bool) {
	e := mshrEntry{done: done, start: start, src: src}
	if held {
		if i := m.find(line); i >= 0 {
			m.ents[i] = e
			return
		}
	}
	m.lines = append(m.lines, line)
	m.ents = append(m.ents, e)
}

// occupancyAt counts entries still in flight at cycle now WITHOUT retiring
// anything. Trace sampling must not call retire: find treats any resident
// entry as pending regardless of its done cycle, and access timestamps can
// run behind the commit cycle a sampler observes, so an extra retire here
// would change prefetch-drop decisions and break traced/untraced
// bit-identity.
func (m *mshrFile) occupancyAt(now uint64) int {
	n := 0
	for i := range m.ents {
		if m.ents[i].done > now {
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
	for _, e := range m.ents {
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

// reset drops every outstanding entry, keeping the occupancy integral.
func (m *mshrFile) reset() {
	m.lines, m.ents = m.lines[:0], m.ents[:0]
}

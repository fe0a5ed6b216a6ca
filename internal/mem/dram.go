package mem

import "dvr/internal/calendar"

// dramSched models DRAM bandwidth with a request-based contention model:
// time is divided into fixed epochs and each epoch can transfer a bounded
// number of cache lines (epochCycles / cyclesPerLine). Unlike a single
// next-free cursor, the calendar accepts requests in any timestamp order —
// the simulator processes instructions in program order, so a dependent
// load far in the future must not steal bandwidth from an independent load
// issued earlier in time but processed later. The calendar is a ring
// buffer (internal/calendar) rather than a map: bandwidth scheduling is on
// the per-instruction hot path.
type dramSched struct {
	epochCycles   uint64
	linesPerEpoch uint16
	cal           *calendar.Calendar
}

// newDRAMSched sizes epochs at 8 line-transfer slots each.
func newDRAMSched(cyclesPerLine uint64) *dramSched {
	if cyclesPerLine == 0 {
		cyclesPerLine = 1
	}
	return &dramSched{
		epochCycles:   8 * cyclesPerLine,
		linesPerEpoch: 8,
		cal:           calendar.New(),
	}
}

// schedule claims a line-transfer slot at or after cycle t and returns the
// service start cycle.
func (d *dramSched) schedule(t uint64) uint64 {
	e := d.cal.Reserve(t/d.epochCycles, d.linesPerEpoch)
	start := e * d.epochCycles
	if t > start {
		start = t
	}
	return start
}

// release promises that no later request arrives before cycle, and drops
// the bookings of every epoch that ends at or before it.
func (d *dramSched) release(cycle uint64) { d.cal.Release(cycle / d.epochCycles) }

// scheduled returns the total number of line transfers booked so far.
func (d *dramSched) scheduled() uint64 { return d.cal.Booked() }

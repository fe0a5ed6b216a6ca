package mem

import "dvr/internal/calendar"

// Warm and BeginSegment are the sampled-simulation support surface: the
// replayer (internal/sampling) builds one hierarchy per Replay (the L3
// tag/meta arrays dominate construction cost), reconstructs approximate
// cache state in it from a recorded functional access trace, and calls
// BeginSegment before timing each representative window.

// Warm touches the line holding addr as a demand access with only the
// state a future access can observe — residency, LRU recency, dirty bits.
// No timing, MSHR, DRAM, prefetcher or statistics side effects: warming
// traffic must be invisible in the replayed window's boundary-delta
// statistics. Victims evicted by warming fills are dropped without
// accounting for the same reason.
func (h *Hierarchy) Warm(addr uint64, write bool) {
	line := lineOf(addr)
	if h.l1d.lookup(line) == nil {
		switch {
		case h.l2.lookup(line) != nil:
			h.l1d.install(line, SrcDemand)
		case h.l3.lookup(line) != nil:
			h.l1d.install(line, SrcDemand)
			h.l2.install(line, SrcDemand)
		default:
			h.l1d.install(line, SrcDemand)
			h.l2.install(line, SrcDemand)
			h.l3.install(line, SrcDemand)
		}
	}
	if write {
		h.markDirty(line)
	}
}

// BeginSegment clears the transient timing state — DRAM calendar, MSHR
// entries, stride-prefetcher streams, the cycle high-water mark — while
// keeping cache contents, dirty bits and the monotone statistics
// integrals. The sampled replayer calls it before each timed segment:
// segment cycle clocks restart at zero, so bookings left from an earlier
// segment would otherwise alias into the new segment's epochs as ghost
// bandwidth contention. MSHR busy cycles keep accumulating so the
// boundary-delta statistics never go backwards.
func (h *Hierarchy) BeginSegment() {
	h.mshr.entries = h.mshr.entries[:0]
	h.dram.reset()
	if h.stride != nil {
		h.stride.reset()
	}
	h.lastCycle = 0
}

func (d *dramSched) reset() {
	d.cal.Import(calendar.State{})
}

func (p *stridePrefetcher) reset() {
	clear(p.streams)
	p.clock = 0
}

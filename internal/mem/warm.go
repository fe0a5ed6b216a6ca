package mem

import (
	"fmt"
	"slices"

	"dvr/internal/calendar"
)

// Warm, CacheState and BeginSegment are the sampled-simulation support
// surface. A sampling plan (internal/sampling) warms one hierarchy through
// the committed access stream once, exports the cache contents at each
// timed segment that follows a gap, and every technique's replay imports
// that state into its own hierarchy and calls BeginSegment before timing
// the segment.

// Warm touches the line holding addr as a demand access with only the
// state a future access can observe — residency, LRU recency, dirty bits.
// No timing, MSHR, DRAM, prefetcher or statistics side effects: warming
// traffic must be invisible in the replayed window's boundary-delta
// statistics. Victims evicted by warming fills are dropped without
// accounting for the same reason.
func (h *Hierarchy) Warm(addr uint64, write bool) {
	line := lineOf(addr)
	if !h.l1d.touch(line) && !h.l2.touch(line) {
		h.l3.touch(line)
	}
	if write {
		h.markDirty(line, -1, -1, -1)
	}
}

// CacheState is the contents of the three cache levels: which line sits
// in which way, its recency, its dirty and prefetch flags, and each level's
// use clock. It is what a later access can observe of past traffic; MSHR
// entries, the DRAM calendar, stride streams and Stats are not part of it.
// A state is immutable once exported and may be imported any number of
// times, from several goroutines at once.
type CacheState struct {
	levels [3]levelState
}

type levelState struct {
	tags, lastUse []uint64
	flags         []uint8
	useClock      uint64
}

func (h *Hierarchy) levels() [3]*cache { return [3]*cache{h.l1d, h.l2, h.l3} }

// ExportCaches copies the current cache contents out of the hierarchy.
func (h *Hierarchy) ExportCaches() *CacheState {
	s := new(CacheState)
	for i, c := range h.levels() {
		s.levels[i] = levelState{
			tags:     slices.Clone(c.tags),
			lastUse:  slices.Clone(c.lastUse),
			flags:    slices.Clone(c.flags),
			useClock: c.useClock,
		}
	}
	return s
}

// ImportCaches overwrites the hierarchy's cache contents with s, leaving
// every other piece of state (MSHRs, DRAM, stride streams, Stats) as it
// is. s must come from a hierarchy of the same cache geometry.
func (h *Hierarchy) ImportCaches(s *CacheState) error {
	for i, c := range h.levels() {
		if len(s.levels[i].tags) != len(c.tags) {
			return fmt.Errorf("mem: cache state level %d has %d ways, hierarchy has %d", i+1, len(s.levels[i].tags), len(c.tags))
		}
	}
	for i, c := range h.levels() {
		lv := &s.levels[i]
		copy(c.tags, lv.tags)
		copy(c.lastUse, lv.lastUse)
		copy(c.flags, lv.flags)
		c.useClock = lv.useClock
	}
	return nil
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
	h.mshr.reset()
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

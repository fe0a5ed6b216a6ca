package mem

import "dvr/internal/trace"

// Config sizes the whole hierarchy. DefaultConfig reproduces Table 1.
type Config struct {
	L1D CacheConfig
	L2  CacheConfig
	L3  CacheConfig

	MSHRs int // outstanding L1-D misses

	DRAMMinLatency    uint64 // cycles (50 ns at 4 GHz = 200)
	DRAMCyclesPerLine uint64 // bandwidth: 51.2 GB/s at 4 GHz = 64 B per 5 cycles

	StrideStreams int  // L1-D stride prefetcher streams
	StrideDegree  int  // prefetch distance in strides
	StrideEnabled bool // the paper keeps the stride prefetcher always on
}

// DefaultConfig returns the Table 1 memory system: 32 KB/8-way/4-cycle L1-D
// with 24 MSHRs and a 16-stream stride prefetcher, 256 KB/8-way/8-cycle L2,
// 8 MB/16-way/30-cycle L3, and DRAM with 50 ns minimum latency and
// 51.2 GB/s bandwidth at 4 GHz.
func DefaultConfig() Config {
	return Config{
		L1D:               CacheConfig{SizeBytes: 32 << 10, Assoc: 8, Latency: 4},
		L2:                CacheConfig{SizeBytes: 256 << 10, Assoc: 8, Latency: 8},
		L3:                CacheConfig{SizeBytes: 8 << 20, Assoc: 16, Latency: 30},
		MSHRs:             24,
		DRAMMinLatency:    200,
		DRAMCyclesPerLine: 5,
		StrideStreams:     16,
		StrideDegree:      4,
		StrideEnabled:     true,
	}
}

// Stats aggregates hierarchy events for the evaluation figures.
type Stats struct {
	Accesses     [numSources]uint64
	DemandHits   [numLevels]uint64 // where demand accesses were satisfied
	DemandMerged uint64            // demand misses merged into an in-flight MSHR
	DRAMAccesses [numSources]uint64
	Writebacks   uint64

	PrefIssued       [numSources]uint64 // prefetches that allocated an MSHR
	PrefDropped      [numSources]uint64 // prefetches rejected (MSHR full / resident)
	PrefUsefulAt     [numLevels]uint64  // demanded prefetched lines, by level found
	PrefLate         [numSources]uint64 // demand merged with in-flight prefetch
	PrefUnusedEvict  [numSources]uint64 // prefetched lines evicted from L3 unused
	MSHRBusyCycles   uint64             // integral of MSHR occupancy over time
	DemandMissCycles uint64             // integral of demand-miss latency
}

// Result describes the outcome of one hierarchy access.
type Result struct {
	Done     uint64 // cycle at which data is available
	Level    Level  // where the access was satisfied
	Rejected bool   // prefetch dropped (MSHR pressure or already resident)
	Merged   bool   // merged into an in-flight miss
}

// Hierarchy is the full cache/DRAM model. It is cycle-stamped: callers pass
// the current cycle with every access and receive a completion cycle.
type Hierarchy struct {
	cfg         Config
	l1d, l2, l3 *cache
	mshr        mshrFile
	dram        *dramSched
	stride      *stridePrefetcher
	Stats       Stats
	lastCycle   uint64

	// observer, when set, sees every demand load at execution time (the
	// point where an L1-D-level prefetcher like IMP trains and triggers).
	observer func(pc int, addr uint64, now uint64)

	// tr, when set, receives prefetch-lifecycle events and MSHR-occupancy
	// samples. Strictly observational: every hook reads state the access
	// path already computed, so traced runs stay bit-identical.
	tr *trace.Recorder
}

// SetTracer attaches a trace recorder (nil detaches).
func (h *Hierarchy) SetTracer(r *trace.Recorder) { h.tr = r }

// Observe registers an L1-D access observer.
func (h *Hierarchy) Observe(fn func(pc int, addr uint64, now uint64)) { h.observer = fn }

// NewHierarchy builds a hierarchy from cfg.
func NewHierarchy(cfg Config) *Hierarchy {
	h := &Hierarchy{
		cfg:  cfg,
		l1d:  newCache(cfg.L1D),
		l2:   newCache(cfg.L2),
		l3:   newCache(cfg.L3),
		mshr: newMSHRFile(cfg.MSHRs),
		dram: newDRAMSched(cfg.DRAMCyclesPerLine),
	}
	if cfg.StrideEnabled {
		h.stride = newStridePrefetcher(cfg.StrideStreams, cfg.StrideDegree)
	}
	return h
}

// Release promises that no later access, prefetch or runahead access is
// stamped below cycle, so the DRAM bandwidth calendar can forget the epochs
// before it; a writeback is stamped at the latest cycle seen, later still.
// A request that breaks the promise is a caller bug, which the calendar
// panics on when it can tell.
func (h *Hierarchy) Release(cycle uint64) { h.dram.release(cycle) }

// Config returns the configuration the hierarchy was built with.
func (h *Hierarchy) Config() Config { return h.cfg }

func lineOf(addr uint64) uint64 { return addr / LineSize }

// Resident reports whether the line holding addr is in any cache level or
// has a fill in flight. Prefetchers use it to avoid redundant requests.
func (h *Hierarchy) Resident(addr uint64) bool {
	line := lineOf(addr)
	if h.l1d.way(line) >= 0 || h.l2.way(line) >= 0 || h.l3.way(line) >= 0 {
		return true
	}
	return h.mshr.find(line) >= 0
}

// prefetchReserve is the number of MSHRs prefetch sources may not take,
// keeping headroom for demand misses.
const prefetchReserve = 4

// Access performs a demand load or store issued by the main core at cycle
// now from the given load/store PC (used to train the stride prefetcher).
func (h *Hierarchy) Access(addr uint64, now uint64, write bool, pc int) Result {
	res := h.access(addr, now, write, SrcDemand)
	if h.stride != nil && !write {
		for _, pf := range h.stride.observe(uint64(pc), addr) {
			h.Prefetch(pf, now, SrcStridePF)
		}
	}
	if h.observer != nil && !write {
		h.observer(pc, addr, now)
	}
	return res
}

// Prefetch requests the line holding addr on behalf of src. Prefetches that
// find the line resident or in flight, or that find no free MSHR, are
// dropped (Rejected). The L1-D and MSHR probes that decide the drop are
// the access's own: an issued prefetch goes straight to the miss path.
func (h *Hierarchy) Prefetch(addr uint64, now uint64, src Source) Result {
	line := lineOf(addr)
	hit, fill := h.l1d.find(line)
	if hit >= 0 {
		h.Stats.PrefDropped[src]++
		return Result{Done: now, Level: LvlL1, Rejected: true}
	}
	if h.mshr.find(line) >= 0 {
		h.Stats.PrefDropped[src]++
		return Result{Done: now, Rejected: true, Merged: true}
	}
	if h.mshr.full(now, prefetchReserve) {
		h.Stats.PrefDropped[src]++
		return Result{Done: now, Rejected: true}
	}
	h.begin(now, src)
	h.l1d.useClock++ // the L1-D probe's tick (find does not count one)
	res := h.miss(line, now, false, src, false, false, fill)
	h.Stats.PrefIssued[src]++
	if h.tr != nil {
		h.tr.Emit(trace.EvPrefetchIssue, now, res.Done, -1, uint64(src), uint64(res.Level))
	}
	return res
}

// RunaheadAccess performs a speculative load on behalf of a runahead
// engine. Unlike Prefetch it does not drop on MSHR pressure: the in-order
// runahead subthread waits for a free MSHR, which is how DVR throttles its
// memory-level parallelism to the machine. It returns where the line was
// found so engines can count true prefetches (non-L1 results).
func (h *Hierarchy) RunaheadAccess(addr uint64, now uint64, src Source) Result {
	res := h.access(addr, now, false, src)
	if res.Level != LvlL1 && !res.Merged {
		h.Stats.PrefIssued[src]++
		if h.tr != nil {
			h.tr.Emit(trace.EvPrefetchIssue, now, res.Done, -1, uint64(src), uint64(res.Level))
		}
	}
	return res
}

// begin accounts one access by src at cycle now.
func (h *Hierarchy) begin(now uint64, src Source) {
	if now > h.lastCycle {
		h.lastCycle = now
	}
	h.Stats.Accesses[src]++
}

// access is the shared demand/prefetch path.
func (h *Hierarchy) access(addr uint64, now uint64, write bool, src Source) Result {
	h.begin(now, src)
	line := lineOf(addr)

	// Merge with an in-flight miss first: lines are installed into the
	// caches when the miss is initiated, so an outstanding MSHR entry means
	// the data has not actually arrived yet. A prefetch entry whose service
	// has not yet STARTED at `now` (runahead issues with future-timestamped
	// cursors) does not exist yet from the demand's point of view: the
	// demand takes the miss over instead of waiting on the future fill, and
	// must also ignore the phantom copies the prefetch installed in the
	// caches.
	overtake := false
	held := h.mshr.find(line)
	if held >= 0 && h.mshr.ents[held].done > now {
		e := &h.mshr.ents[held]
		if src == SrcDemand && e.src.IsPrefetch() && e.start > now {
			overtake = true
			h.Stats.PrefLate[e.src]++
			if h.tr != nil {
				h.tr.Emit(trace.EvPrefetchLate, now, 0, -1, uint64(e.src), 0)
			}
			h.l1d.clearFlag(line, flagPrefetch)
			h.l2.clearFlag(line, flagPrefetch)
			h.l3.clearFlag(line, flagPrefetch)
		} else {
			done := e.done
			if src == SrcDemand {
				h.Stats.DemandMerged++
				h.Stats.DemandMissCycles += done - now
				if e.src.IsPrefetch() {
					// A demand arrived before the prefetch completed: late.
					h.Stats.PrefLate[e.src]++
					if h.tr != nil {
						h.tr.Emit(trace.EvPrefetchLate, now, 0, -1, uint64(e.src), 0)
					}
					h.l1d.clearFlag(line, flagPrefetch)
					h.l2.clearFlag(line, flagPrefetch)
					h.l3.clearFlag(line, flagPrefetch)
					e.src = SrcDemand
				}
			}
			if write {
				h.markDirty(line, -1, -1, -1)
			}
			return Result{Done: done, Merged: true}
		}
	}

	// L1-D
	w, fill := h.l1d.lookup(line)
	if w >= 0 && !overtake {
		if write {
			h.markDirty(line, w, -1, -1)
		}
		if src == SrcDemand {
			h.Stats.DemandHits[LvlL1]++
			if h.l1d.claimPrefetch(w) {
				h.Stats.PrefUsefulAt[LvlL1]++
				h.l2.clearFlag(line, flagPrefetch)
				h.l3.clearFlag(line, flagPrefetch)
			}
		}
		return Result{Done: now + h.cfg.L1D.Latency, Level: LvlL1}
	}
	if overtake {
		// The caches may hold the prefetch's phantom copies, which the
		// fills below do not replace: every level picks its victim when it
		// fills, and every dirty bit is set by a probe.
		fill = -1
	}
	return h.miss(line, now, write, src, overtake, held >= 0, fill)
}

// miss is an access that missed the L1-D (or overtook a prefetch still
// waiting to start): it waits for an MSHR, finds the line below the L1-D
// (or in DRAM), fills the levels above where it was found, and allocates
// the MSHR. held says the MSHR file had an entry for line when the access
// began; fill1 is the L1-D way the fill takes, or -1 to choose it at fill
// time.
func (h *Hierarchy) miss(line, now uint64, write bool, src Source, overtake, held bool, fill1 int) Result {
	// Allocate an MSHR; when none is free the miss waits for one. Prefetch
	// sources leave a reserve of MSHRs for demand misses. The Oracle is the
	// paper's hypothetical technique: it is bandwidth-constrained but not
	// MSHR-constrained.
	reserve := 0
	if src.IsPrefetch() && src != SrcOracle {
		reserve = prefetchReserve
	}
	start := now
	if src != SrcOracle && h.mshr.full(now, reserve) {
		if free := h.mshr.freeAt(now, reserve); free > start {
			start = free
		}
		h.mshr.retire(start)
	}

	// The way each level holds line in once the fills are done (-1 where
	// no probe of this access found it), for a store's dirty bits.
	w1, w2, w3 := -1, -1, -1
	t := start + h.cfg.L1D.Latency
	level := LvlMem
	var done uint64
	hit2, fill2 := h.l2.lookup(line)
	if hit2 >= 0 && !overtake {
		level, w2 = LvlL2, hit2
		done = t + h.cfg.L2.Latency
		if src == SrcDemand && h.l2.claimPrefetch(hit2) {
			h.Stats.PrefUsefulAt[LvlL2]++
			h.l3.clearFlag(line, flagPrefetch)
		}
	} else {
		t += h.cfg.L2.Latency
		hit3, fill3 := h.l3.lookup(line)
		if hit3 >= 0 && !overtake {
			level, w3 = LvlL3, hit3
			done = t + h.cfg.L3.Latency
			if src == SrcDemand && h.l3.claimPrefetch(hit3) {
				h.Stats.PrefUsefulAt[LvlL3]++
			}
		} else {
			// DRAM, under request-based bandwidth contention.
			req := t + h.cfg.L3.Latency
			serviceStart := h.dram.schedule(req)
			done = serviceStart + h.cfg.DRAMMinLatency
			h.Stats.DRAMAccesses[src]++
			if overtake {
				fill2, fill3 = -1, -1
			}
			h.evict(h.l1d.install(line, src, fill1), false)
			h.evict(h.l2.install(line, src, fill2), false)
			h.evict(h.l3.install(line, src, fill3), true)
			w1, w2, w3 = fill1, fill2, fill3
		}
	}
	if level == LvlL2 || level == LvlL3 {
		h.evict(h.l1d.install(line, src, fill1), false)
		w1 = fill1
		if level == LvlL3 {
			h.evict(h.l2.install(line, src, fill2), false)
			w2 = fill2
		}
	}
	if write {
		h.markDirty(line, w1, w2, w3)
	}
	if src == SrcDemand {
		h.Stats.DemandHits[level]++
		h.Stats.DemandMissCycles += done - now
	}
	h.mshr.allocate(line, start, done, src, held)
	if h.tr != nil {
		h.tr.MSHROccupancy(now, h.mshr.occupancyAt(now))
	}
	return Result{Done: done, Level: level}
}

// evict accounts for a victim line leaving a cache level. Unused prefetch
// accounting happens only when the line leaves the L3 (leaves the chip).
func (h *Hierarchy) evict(v victim, fromL3 bool) {
	if !v.valid || !fromL3 {
		return
	}
	if v.flags&flagDirty != 0 {
		// Dirty writeback consumes a DRAM slot.
		h.dram.schedule(h.lastCycle)
		h.Stats.Writebacks++
	}
	if v.flags&flagPrefetch != 0 {
		src := Source(v.flags >> srcShift)
		h.Stats.PrefUnusedEvict[src]++
		if h.tr != nil {
			h.tr.Emit(trace.EvPrefetchUseless, h.lastCycle, 0, -1, uint64(src), 0)
		}
	}
}

// markDirty sets the dirty bit on every resident copy of line, so the
// eventual L3 eviction accounts a writeback. w1, w2 and w3 are the ways
// the access already found line in, level by level, or -1 where a probe
// has to find it.
func (h *Hierarchy) markDirty(line uint64, w1, w2, w3 int) {
	for i, c := range [...]*cache{h.l1d, h.l2, h.l3} {
		w := [...]int{w1, w2, w3}[i]
		if w < 0 {
			w = c.way(line)
		}
		if w >= 0 {
			c.flags[w] |= flagDirty
		}
	}
}

// FinishStats folds still-outstanding MSHR occupancy into the statistics;
// call once at the end of simulation with the final cycle.
func (h *Hierarchy) FinishStats(now uint64) {
	h.mshr.retire(^uint64(0) >> 1)
	h.Stats.MSHRBusyCycles = h.mshr.busyCycles
}

// TotalPrefIssued sums prefetches issued across prefetching sources.
func (s Stats) TotalPrefIssued() uint64 {
	var t uint64
	for src := Source(0); src < numSources; src++ {
		t += s.PrefIssued[src]
	}
	return t
}

// TotalPrefUseful sums prefetched lines that were later demanded.
func (s Stats) TotalPrefUseful() uint64 {
	var t uint64
	for l := Level(0); l < numLevels; l++ {
		t += s.PrefUsefulAt[l]
	}
	return t
}

// TotalDRAM sums DRAM accesses across sources.
func (s Stats) TotalDRAM() uint64 {
	var t uint64
	for src := Source(0); src < numSources; src++ {
		t += s.DRAMAccesses[src]
	}
	return t
}

// TotalPrefLate sums late prefetches (demand caught them in flight) across
// sources.
func (s Stats) TotalPrefLate() uint64 {
	var t uint64
	for src := Source(0); src < numSources; src++ {
		t += s.PrefLate[src]
	}
	return t
}

// TotalPrefUnusedEvict sums prefetched lines evicted unused across sources.
func (s Stats) TotalPrefUnusedEvict() uint64 {
	var t uint64
	for src := Source(0); src < numSources; src++ {
		t += s.PrefUnusedEvict[src]
	}
	return t
}

// PrefOffChip counts src's prefetches the main thread observed beyond the
// LLC: caught in flight (late) or evicted unused — the "off-chip" class of
// the Figure 11 timeliness split.
func (s Stats) PrefOffChip(src Source) uint64 {
	return s.PrefLate[src] + s.PrefUnusedEvict[src]
}

// DemandMisses counts demand accesses not satisfied by the L1-D (including
// merges into in-flight misses) — the denominator for the mean demand-miss
// latency.
func (s Stats) DemandMisses() uint64 {
	var t uint64
	for l := LvlL2; l < numLevels; l++ {
		t += s.DemandHits[l]
	}
	return t + s.DemandMerged
}

// MSHRBusyCyclesAt returns the MLP occupancy integral through cycle now
// without mutating the MSHR file — safe to call mid-run from trace
// sampling, unlike FinishStats, which retires entries.
func (h *Hierarchy) MSHRBusyCyclesAt(now uint64) uint64 { return h.mshr.busyAt(now) }

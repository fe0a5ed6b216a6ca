// Package mem models the memory hierarchy of Table 1: set-associative LRU
// caches (L1-D, L2, L3), a 24-entry L1-D MSHR file with miss merging, a
// DRAM channel with a 50 ns minimum latency and 51.2 GB/s of bandwidth
// under a request-based contention model, and the always-on 16-stream
// L1-D stride prefetcher. Prefetched lines carry provenance so prefetch
// accuracy, coverage and timeliness (Figures 9-11) can be measured.
package mem

// LineSize is the cache line size in bytes.
const LineSize = 64

// Source identifies who generated a memory access; it drives the
// accuracy/coverage/timeliness accounting.
type Source uint8

// Access sources.
const (
	SrcDemand   Source = iota // main-thread load/store
	SrcStridePF               // baseline L1-D stride prefetcher
	SrcRunahead               // any runahead technique (PRE/VR/DVR)
	SrcIMP                    // indirect memory prefetcher
	SrcOracle                 // oracle prefetcher
	numSources
)

// IsPrefetch reports whether the source is a prefetch rather than demand.
func (s Source) IsPrefetch() bool { return s != SrcDemand }

func (s Source) String() string {
	switch s {
	case SrcDemand:
		return "demand"
	case SrcStridePF:
		return "stride-pf"
	case SrcRunahead:
		return "runahead"
	case SrcIMP:
		return "imp"
	case SrcOracle:
		return "oracle"
	}
	return "unknown"
}

// Level identifies where in the hierarchy an access was satisfied.
type Level uint8

// Hit levels.
const (
	LvlL1 Level = iota
	LvlL2
	LvlL3
	LvlMem
	numLevels
)

func (l Level) String() string {
	switch l {
	case LvlL1:
		return "L1"
	case LvlL2:
		return "L2"
	case LvlL3:
		return "L3"
	case LvlMem:
		return "Mem"
	}
	return "?"
}

// CacheConfig sizes one cache level.
type CacheConfig struct {
	SizeBytes int
	Assoc     int
	Latency   uint64 // access latency in cycles
}

type cacheLine struct {
	tag      uint64
	valid    bool
	dirty    bool
	lastUse  uint64
	prefSrc  Source // valid when prefetched && !prefUsed
	prefetch bool   // line was installed by a prefetch and not yet demanded
}

// cache is one set-associative LRU cache level. Tags live in a flat
// parallel array so the hot probe loop touches 8 bytes per way instead of
// a full cacheLine struct; the tag array stores line+1 with 0 meaning an
// empty way (line addresses are <2^58, so +1 cannot wrap). Only install
// and invalidate change residency, and both keep tags and meta in sync;
// callers may mutate the dirty/prefetch bits of a returned way freely.
type cache struct {
	cfg      CacheConfig
	assoc    uint64
	setMask  uint64
	tags     []uint64    // tags[set*assoc+way] = line+1, 0 if empty
	meta     []cacheLine // parallel per-way state
	useClock uint64
}

func newCache(cfg CacheConfig) *cache {
	nLines := cfg.SizeBytes / LineSize
	nSets := nLines / cfg.Assoc
	if nSets < 1 {
		nSets = 1
	}
	// round down to a power of two for cheap indexing
	for nSets&(nSets-1) != 0 {
		nSets &^= nSets & -nSets
	}
	n := nSets * cfg.Assoc
	return &cache{
		cfg:     cfg,
		assoc:   uint64(cfg.Assoc),
		setMask: uint64(nSets - 1),
		tags:    make([]uint64, n),
		meta:    make([]cacheLine, n),
	}
}

// way returns the resident way holding line, or nil, without touching LRU
// state.
func (c *cache) way(line uint64) *cacheLine {
	base := (line & c.setMask) * c.assoc
	t := line + 1
	for w := base; w < base+c.assoc; w++ {
		if c.tags[w] == t {
			return &c.meta[w]
		}
	}
	return nil
}

// lookup probes for line; on hit it refreshes LRU state and returns the way.
func (c *cache) lookup(line uint64) *cacheLine {
	c.useClock++
	if m := c.way(line); m != nil {
		m.lastUse = c.useClock
		return m
	}
	return nil
}

// install fills line, evicting the LRU way. It returns the victim line
// (the zero cacheLine if the way was empty, whatever its meta last held)
// so the caller can account dirty writebacks and wasted prefetches.
func (c *cache) install(line uint64, src Source) cacheLine {
	c.useClock++
	base := (line & c.setMask) * c.assoc
	victim := base
	for w := base; w < base+c.assoc; w++ {
		if c.tags[w] == 0 {
			victim = w
			break
		}
		if c.meta[w].lastUse < c.meta[victim].lastUse {
			victim = w
		}
	}
	var old cacheLine
	if c.tags[victim] != 0 {
		old = c.meta[victim]
	}
	c.tags[victim] = line + 1
	c.meta[victim] = cacheLine{
		tag:      line,
		valid:    true,
		lastUse:  c.useClock,
		prefetch: src.IsPrefetch(),
		prefSrc:  src,
	}
	return old
}

// invalidate drops line if present and returns whether it was present.
func (c *cache) invalidate(line uint64) bool {
	base := (line & c.setMask) * c.assoc
	t := line + 1
	for w := base; w < base+c.assoc; w++ {
		if c.tags[w] == t {
			c.tags[w] = 0
			c.meta[w].valid = false
			return true
		}
	}
	return false
}

// contains reports whether line is resident without perturbing LRU.
func (c *cache) contains(line uint64) bool {
	return c.way(line) != nil
}

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

// Per-way flag byte: dirty | prefetch<<1 | source<<2, the byte a
// CacheSnapshot way record ends with. The source is meaningful while the
// prefetch bit is set (installed by a prefetch, not yet demanded) and is
// left behind when a demand clears the bit.
const (
	flagDirty    uint8 = 1
	flagPrefetch uint8 = 2
	srcShift           = 2
)

// victim is the line an install displaced; the zero victim means the way
// was empty.
type victim struct {
	line  uint64
	flags uint8
	valid bool
}

// cache is one set-associative LRU cache level, held as flat parallel
// arrays indexed by set*assoc+way: the probe loop touches 8 bytes per way,
// the LRU scan 8 more, and the whole level is three copies to export or
// import (CacheState). The tag array stores line+1 with 0 meaning an empty
// way (line addresses are <2^58, so +1 cannot wrap); lastUse and flags of
// an empty way are stale and never read. Only install and invalidate
// change residency; callers may mutate the flag bits of a resident way.
type cache struct {
	cfg      CacheConfig
	assoc    uint64
	setMask  uint64
	tags     []uint64 // line+1, 0 if empty
	lastUse  []uint64 // useClock at the way's last lookup hit or install
	flags    []uint8  // dirty | prefetch<<1 | source<<2
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
		lastUse: make([]uint64, n),
		flags:   make([]uint8, n),
	}
}

// way returns the index of the resident way holding line, or -1, without
// touching LRU state.
func (c *cache) way(line uint64) int {
	base := (line & c.setMask) * c.assoc
	t := line + 1
	for w, tag := range c.tags[base : base+c.assoc] {
		if tag == t {
			return int(base) + w
		}
	}
	return -1
}

// find probes line's set without touching LRU state. It returns the way
// holding line (the first match) and -1, or, when line is absent, -1 and
// the way a fill of line would take (what install picks): the victim is
// chosen by the probe that missed, while the set is in the host's cache,
// not by a later install. A hit reads only tags; recency is read only to
// pick a victim.
func (c *cache) find(line uint64) (hit, fill int) {
	if w := c.way(line); w >= 0 {
		return w, -1
	}
	return -1, c.victim(line)
}

// lookup probes for line, refreshing its LRU state on a hit. It returns
// find's pair: the hit way, or on a miss the way a fill would take (valid
// until the set changes).
func (c *cache) lookup(line uint64) (hit, fill int) {
	c.useClock++
	hit, fill = c.find(line)
	if hit >= 0 {
		c.lastUse[hit] = c.useClock
	}
	return hit, fill
}

// victim returns the way install would fill in line's set: the first empty
// way, else the least recently used.
func (c *cache) victim(line uint64) int {
	base := (line & c.setMask) * c.assoc
	lastUse := c.lastUse[base : base+c.assoc]
	v, oldest := 0, ^uint64(0)
	for w, tag := range c.tags[base : base+c.assoc] {
		if tag == 0 {
			v = w
			break
		}
		if u := lastUse[w]; u < oldest {
			v, oldest = w, u
		}
	}
	return int(base) + v
}

// install fills line into way w, which a lookup or find that missed line
// returned for it (or, when w < 0, the set's victim way as of now). It
// returns the displaced line (the zero victim if the way was empty,
// whatever its flags last held) so the caller can account dirty
// writebacks and wasted prefetches.
func (c *cache) install(line uint64, src Source, w int) victim {
	if w < 0 {
		w = c.victim(line)
	}
	c.useClock++
	var old victim
	if tag := c.tags[w]; tag != 0 {
		old = victim{line: tag - 1, flags: c.flags[w], valid: true}
	}
	c.tags[w] = line + 1
	c.lastUse[w] = c.useClock
	f := uint8(src) << srcShift
	if src.IsPrefetch() {
		f |= flagPrefetch
	}
	c.flags[w] = f
	return old
}

// touch is lookup followed, on a miss, by a demand install whose victim is
// dropped: the functional-warming primitive, one call per level.
func (c *cache) touch(line uint64) bool {
	hit, fill := c.find(line)
	if hit >= 0 {
		c.useClock++
		c.lastUse[hit] = c.useClock
		return true
	}
	c.useClock += 2
	c.tags[fill] = line + 1
	c.lastUse[fill] = c.useClock
	c.flags[fill] = 0
	return false
}

// invalidate drops line if present and returns whether it was present.
func (c *cache) invalidate(line uint64) bool {
	w := c.way(line)
	if w < 0 {
		return false
	}
	c.tags[w] = 0
	return true
}

// claimPrefetch clears way w's prefetch bit and reports whether it was
// set: the first demand for a line a prefetch installed.
func (c *cache) claimPrefetch(w int) bool {
	if c.flags[w]&flagPrefetch == 0 {
		return false
	}
	c.flags[w] &^= flagPrefetch
	return true
}

// clearFlag clears flag bits on line's way if it is resident.
func (c *cache) clearFlag(line uint64, f uint8) {
	if w := c.way(line); w >= 0 {
		c.flags[w] &^= f
	}
}

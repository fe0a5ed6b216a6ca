package mem

import (
	"encoding/binary"
	"fmt"

	"dvr/internal/calendar"
)

// wayRecBytes is the size of one packed record in CacheSnapshot.Ways:
// uint32 way, uint64 line, uint64 lastUse, then one flag byte
// (dirty | prefetch<<1 | source<<2), all little-endian.
const wayRecBytes = 21

// CacheSnapshot captures one cache level: its LRU clock and every occupied
// way as a packed record (JSON encodes Ways as base64). The way index pins
// the line to its exact slot so LRU victim selection after restore is
// bit-identical. Empty ways are implicit, so the size tracks the touched
// footprint rather than the configured capacity (an idle 8 MB L3 costs
// nothing).
type CacheSnapshot struct {
	UseClock uint64 `json:"use_clock"`
	Ways     []byte `json:"ways,omitempty"`
}

// MSHRWay is one outstanding miss in serializable form.
type MSHRWay struct {
	Line  uint64 `json:"l"`
	Start uint64 `json:"b"`
	Done  uint64 `json:"e"`
	Src   uint8  `json:"s"`
}

// MSHRSnapshot captures the MSHR file: the outstanding entries in their
// internal order plus the occupancy integral accumulated so far.
type MSHRSnapshot struct {
	Entries    []MSHRWay `json:"entries,omitempty"`
	BusyCycles uint64    `json:"busy_cycles"`
}

// StrideStream is one stride-prefetcher stream in serializable form.
type StrideStream struct {
	PC       uint64 `json:"pc"`
	Valid    bool   `json:"v,omitempty"`
	LastAddr uint64 `json:"a"`
	Stride   int64  `json:"st"`
	Conf     uint8  `json:"c"`
	LastUse  uint64 `json:"u"`
}

// StrideSnapshot captures the stride prefetcher's streams and clock.
type StrideSnapshot struct {
	Streams []StrideStream `json:"streams"`
	Clock   uint64         `json:"clock"`
}

// Snapshot is the serializable state of a Hierarchy. The configuration is
// not part of it — restore targets a hierarchy freshly built from the same
// Config, and shape mismatches are detected against that.
type Snapshot struct {
	L1D       CacheSnapshot   `json:"l1d"`
	L2        CacheSnapshot   `json:"l2"`
	L3        CacheSnapshot   `json:"l3"`
	MSHR      MSHRSnapshot    `json:"mshr"`
	DRAM      calendar.State  `json:"dram"`
	Stride    *StrideSnapshot `json:"stride,omitempty"`
	Stats     Stats           `json:"stats"`
	LastCycle uint64          `json:"last_cycle"`
}

func (c *cache) snapshot() CacheSnapshot {
	s := CacheSnapshot{UseClock: c.useClock}
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	if n == 0 {
		return s
	}
	s.Ways = make([]byte, n*wayRecBytes)
	rec := s.Ways
	for w, t := range c.tags {
		if t == 0 {
			continue
		}
		binary.LittleEndian.PutUint32(rec, uint32(w))
		binary.LittleEndian.PutUint64(rec[4:], t-1)
		binary.LittleEndian.PutUint64(rec[12:], c.lastUse[w])
		rec[20] = c.flags[w]
		rec = rec[wayRecBytes:]
	}
	return s
}

func (c *cache) restore(s CacheSnapshot, name string) error {
	if len(s.Ways)%wayRecBytes != 0 {
		return fmt.Errorf("mem: %s snapshot has %d bytes of ways, want a multiple of %d", name, len(s.Ways), wayRecBytes)
	}
	clear(c.tags)
	for rec := s.Ways; len(rec) > 0; rec = rec[wayRecBytes:] {
		way := uint64(binary.LittleEndian.Uint32(rec))
		line := binary.LittleEndian.Uint64(rec[4:])
		flags := rec[20]
		if way >= uint64(len(c.tags)) {
			return fmt.Errorf("mem: %s snapshot way %d out of range (cache has %d ways)", name, way, len(c.tags))
		}
		if way/c.assoc != line&c.setMask {
			return fmt.Errorf("mem: %s snapshot line %#x does not map to way %d", name, line, way)
		}
		if c.tags[way] != 0 {
			return fmt.Errorf("mem: %s snapshot has duplicate way %d", name, way)
		}
		if flags>>srcShift >= byte(numSources) {
			return fmt.Errorf("mem: %s snapshot way %d has unknown source %d", name, way, flags>>2)
		}
		c.tags[way] = line + 1
		c.lastUse[way] = binary.LittleEndian.Uint64(rec[12:])
		c.flags[way] = flags
	}
	c.useClock = s.UseClock
	return nil
}

// Snapshot captures the hierarchy's full timing state: cache contents and
// LRU clocks, outstanding MSHR entries, the DRAM bandwidth calendar, the
// stride prefetcher, and the statistics counters.
func (h *Hierarchy) Snapshot() Snapshot {
	s := Snapshot{
		L1D:       h.l1d.snapshot(),
		L2:        h.l2.snapshot(),
		L3:        h.l3.snapshot(),
		DRAM:      h.dram.cal.Export(),
		Stats:     h.Stats,
		LastCycle: h.lastCycle,
	}
	s.MSHR.BusyCycles = h.mshr.busyCycles
	for i, e := range h.mshr.ents {
		s.MSHR.Entries = append(s.MSHR.Entries, MSHRWay{
			Line: h.mshr.lines[i], Start: e.start, Done: e.done, Src: uint8(e.src),
		})
	}
	if h.stride != nil {
		ss := &StrideSnapshot{Clock: h.stride.clock, Streams: make([]StrideStream, len(h.stride.streams))}
		for i, st := range h.stride.streams {
			ss.Streams[i] = StrideStream{
				PC: st.pc, Valid: st.valid, LastAddr: st.lastAddr,
				Stride: st.stride, Conf: st.conf, LastUse: st.lastUse,
			}
		}
		s.Stride = ss
	}
	return s
}

// Restore overwrites the hierarchy's state from s. The hierarchy must have
// been built from the same Config the snapshot was taken under; shape
// mismatches return an error. The registered access observer (if any) is
// preserved — engines re-register themselves before restore.
func (h *Hierarchy) Restore(s Snapshot) error {
	if err := h.l1d.restore(s.L1D, "L1D"); err != nil {
		return err
	}
	if err := h.l2.restore(s.L2, "L2"); err != nil {
		return err
	}
	if err := h.l3.restore(s.L3, "L3"); err != nil {
		return err
	}
	h.mshr.reset()
	for _, e := range s.MSHR.Entries {
		if e.Src >= uint8(numSources) {
			return fmt.Errorf("mem: MSHR snapshot entry for line %#x has unknown source %d", e.Line, e.Src)
		}
		h.mshr.allocate(e.Line, e.Start, e.Done, Source(e.Src), false)
	}
	h.mshr.busyCycles = s.MSHR.BusyCycles
	h.dram.cal.Import(s.DRAM)
	if (h.stride != nil) != (s.Stride != nil) {
		return fmt.Errorf("mem: snapshot stride prefetcher presence (%v) does not match config (%v)",
			s.Stride != nil, h.stride != nil)
	}
	if h.stride != nil {
		if len(s.Stride.Streams) != len(h.stride.streams) {
			return fmt.Errorf("mem: snapshot has %d stride streams, config has %d",
				len(s.Stride.Streams), len(h.stride.streams))
		}
		for i, st := range s.Stride.Streams {
			h.stride.streams[i] = pfStream{
				pc: st.PC, valid: st.Valid, lastAddr: st.LastAddr,
				stride: st.Stride, conf: st.Conf, lastUse: st.LastUse,
			}
		}
		h.stride.clock = s.Stride.Clock
	}
	h.Stats = s.Stats
	h.lastCycle = s.LastCycle
	return nil
}

// MSHRDumpEntry is one outstanding miss as reported in a forensics dump.
type MSHRDumpEntry struct {
	Line  uint64 `json:"line"`
	Start uint64 `json:"start"`
	Done  uint64 `json:"done"`
	Src   string `json:"src"`
}

// MSHRDump returns the outstanding MSHR entries in human-readable form for
// livelock forensics.
func (h *Hierarchy) MSHRDump() []MSHRDumpEntry {
	out := make([]MSHRDumpEntry, 0, len(h.mshr.ents))
	for i, e := range h.mshr.ents {
		out = append(out, MSHRDumpEntry{
			Line: h.mshr.lines[i], Start: e.start, Done: e.done, Src: e.src.String(),
		})
	}
	return out
}

// Upper bounds on the sizes a Config allocates, one per class, far above
// Table 1 (an 8 MB, 16-way L3, 24 MSHRs, 16 streams of degree 4): a cache
// of maxCacheBytes costs its hierarchy about 70 MB of tag, recency and
// flag arrays.
const (
	maxCacheBytes    = 256 << 20
	maxAssoc         = 1024
	maxMSHRs         = 1 << 16
	maxStrideStreams = 1 << 10 // streams, and prefetches per trigger
)

// Validate rejects configurations that the model cannot simulate. These
// are request-shaped errors (a malformed Config arriving over the dvrd
// wire), caught here so they surface as typed errors instead of runtime
// panics (division by zero sizing a cache) or degenerate scheduling.
func (c Config) Validate() error {
	for _, lv := range []struct {
		name string
		cc   CacheConfig
	}{{"l1d", c.L1D}, {"l2", c.L2}, {"l3", c.L3}} {
		if lv.cc.Assoc < 1 {
			return fmt.Errorf("mem: %s associativity must be >= 1, got %d", lv.name, lv.cc.Assoc)
		}
		if lv.cc.SizeBytes < LineSize {
			return fmt.Errorf("mem: %s size must be >= one %d-byte line, got %d", lv.name, LineSize, lv.cc.SizeBytes)
		}
		if lv.cc.SizeBytes > maxCacheBytes {
			return fmt.Errorf("mem: %s size must be <= %d bytes, got %d", lv.name, maxCacheBytes, lv.cc.SizeBytes)
		}
		if lv.cc.Assoc > maxAssoc {
			return fmt.Errorf("mem: %s associativity must be <= %d, got %d", lv.name, maxAssoc, lv.cc.Assoc)
		}
	}
	if c.MSHRs < 1 || c.MSHRs > maxMSHRs {
		return fmt.Errorf("mem: MSHR count must be in [1,%d], got %d", maxMSHRs, c.MSHRs)
	}
	if c.StrideEnabled && (c.StrideStreams < 1 || c.StrideStreams > maxStrideStreams) {
		return fmt.Errorf("mem: stride prefetcher enabled with %d streams; need [1,%d]", c.StrideStreams, maxStrideStreams)
	}
	if c.StrideEnabled && (c.StrideDegree < 0 || c.StrideDegree > maxStrideStreams) {
		return fmt.Errorf("mem: stride degree must be in [0,%d], got %d", maxStrideStreams, c.StrideDegree)
	}
	return nil
}

package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refLine and refCache are the array-of-structs cache the flat-array one
// replaced, kept as the reference model: one struct per way, pointers
// handed out to callers, flags as separate booleans.
type refLine struct {
	tag      uint64
	valid    bool
	dirty    bool
	lastUse  uint64
	prefSrc  Source
	prefetch bool
}

type refCache struct {
	assoc    uint64
	setMask  uint64
	tags     []uint64
	meta     []refLine
	useClock uint64
}

func newRefCache(c *cache) *refCache {
	return &refCache{
		assoc:   c.assoc,
		setMask: c.setMask,
		tags:    make([]uint64, len(c.tags)),
		meta:    make([]refLine, len(c.tags)),
	}
}

func (c *refCache) way(line uint64) *refLine {
	base := (line & c.setMask) * c.assoc
	for w := base; w < base+c.assoc; w++ {
		if c.tags[w] == line+1 {
			return &c.meta[w]
		}
	}
	return nil
}

func (c *refCache) lookup(line uint64) *refLine {
	c.useClock++
	if m := c.way(line); m != nil {
		m.lastUse = c.useClock
		return m
	}
	return nil
}

func (c *refCache) install(line uint64, src Source) refLine {
	c.useClock++
	base := (line & c.setMask) * c.assoc
	v := base
	for w := base; w < base+c.assoc; w++ {
		if c.tags[w] == 0 {
			v = w
			break
		}
		if c.meta[w].lastUse < c.meta[v].lastUse {
			v = w
		}
	}
	var old refLine
	if c.tags[v] != 0 {
		old = c.meta[v]
	}
	c.tags[v] = line + 1
	c.meta[v] = refLine{tag: line, valid: true, lastUse: c.useClock, prefetch: src.IsPrefetch(), prefSrc: src}
	return old
}

func (c *refCache) invalidate(line uint64) bool {
	base := (line & c.setMask) * c.assoc
	for w := base; w < base+c.assoc; w++ {
		if c.tags[w] == line+1 {
			c.tags[w] = 0
			c.meta[w].valid = false
			return true
		}
	}
	return false
}

func (m refLine) flags() uint8 {
	f := uint8(m.prefSrc) << srcShift
	if m.dirty {
		f |= flagDirty
	}
	if m.prefetch {
		f |= flagPrefetch
	}
	return f
}

func (c *refCache) snapshot() CacheSnapshot {
	s := CacheSnapshot{UseClock: c.useClock}
	for w, t := range c.tags {
		if t == 0 {
			continue
		}
		m := c.meta[w]
		s.Ways = binary.LittleEndian.AppendUint32(s.Ways, uint32(w))
		s.Ways = binary.LittleEndian.AppendUint64(s.Ways, m.tag)
		s.Ways = binary.LittleEndian.AppendUint64(s.Ways, m.lastUse)
		s.Ways = append(s.Ways, m.flags())
	}
	return s
}

// TestCacheMatchesArrayOfStructs drives the flat-array cache and the
// reference with the same random operation sequences: every lookup must
// hit or miss alike and see the same flags, every install must displace
// the same victim, touch must leave what lookup-then-install leaves, and
// the snapshots (the checkpoint bytes) must agree along the way.
func TestCacheMatchesArrayOfStructs(t *testing.T) {
	for _, assoc := range []int{1, 8, 16} {
		for seed := int64(1); seed <= 4; seed++ {
			c := newCache(CacheConfig{SizeBytes: 8 * assoc * LineSize, Assoc: assoc, Latency: 1}) // 8 sets
			ref := newRefCache(c)
			rng := rand.New(rand.NewSource(seed))
			lines := uint64(8 * assoc * 3) // three times the capacity: steady evictions
			for op := 0; op < 20_000; op++ {
				line := rng.Uint64() % lines
				switch k := rng.Intn(10); {
				case k < 4:
					w, fill := c.lookup(line)
					m := ref.lookup(line)
					if (w >= 0) != (m != nil) {
						t.Fatalf("assoc %d seed %d op %d: lookup(%d) hit=%v, reference hit=%v", assoc, seed, op, line, w >= 0, m != nil)
					}
					if m != nil && (c.flags[w] != m.flags() || c.lastUse[w] != m.lastUse) {
						t.Fatalf("assoc %d seed %d op %d: line %d flags %#x lastUse %d, reference %#x %d",
							assoc, seed, op, line, c.flags[w], c.lastUse[w], m.flags(), m.lastUse)
					}
					if m == nil && rng.Intn(2) == 0 {
						// The single-scan probe's fill way against
						// lookup-then-install's own victim search.
						src := Source(rng.Intn(int(numSources)))
						v, old := c.install(line, src, fill), ref.install(line, src)
						if v.valid != old.valid || (v.valid && (v.line != old.tag || v.flags != old.flags())) {
							t.Fatalf("assoc %d seed %d op %d: fill of %d at the probed way displaced %+v, reference %+v", assoc, seed, op, line, v, old)
						}
					}
				case k < 7:
					src := Source(rng.Intn(int(numSources)))
					v, old := c.install(line, src, -1), ref.install(line, src)
					if v.valid != old.valid || (v.valid && (v.line != old.tag || v.flags != old.flags())) {
						t.Fatalf("assoc %d seed %d op %d: install(%d) displaced %+v, reference %+v", assoc, seed, op, line, v, old)
					}
				case k < 8 && op%2 == 0:
					// Warm's fused probe-and-fill against its two-step meaning.
					hit := ref.lookup(line) != nil
					if !hit {
						ref.install(line, SrcDemand)
					}
					if got := c.touch(line); got != hit {
						t.Fatalf("assoc %d seed %d op %d: touch(%d) hit=%v, reference hit=%v", assoc, seed, op, line, got, hit)
					}
				case k < 8:
					if got, want := c.invalidate(line), ref.invalidate(line); got != want {
						t.Fatalf("assoc %d seed %d op %d: invalidate(%d) = %v, reference %v", assoc, seed, op, line, got, want)
					}
				case k < 9:
					if w := c.way(line); w >= 0 {
						c.flags[w] |= flagDirty
					}
					if m := ref.way(line); m != nil {
						m.dirty = true
					}
				default:
					c.clearFlag(line, flagPrefetch)
					if m := ref.way(line); m != nil {
						m.prefetch = false
					}
				}
				if op%500 == 0 {
					if got, want := c.snapshot(), ref.snapshot(); got.UseClock != want.UseClock || !bytes.Equal(got.Ways, want.Ways) {
						t.Fatalf("assoc %d seed %d op %d: snapshots differ", assoc, seed, op)
					}
				}
			}
			if got, want := c.snapshot(), ref.snapshot(); got.UseClock != want.UseClock || !bytes.Equal(got.Ways, want.Ways) {
				t.Fatalf("assoc %d seed %d: final snapshots differ", assoc, seed)
			}
		}
	}
}

// TestCacheStateRoundTrip checks export/import carries exactly the cache
// contents: a hierarchy that imports another's state snapshots the same
// three levels and answers the same accesses alike, while its own MSHRs,
// DRAM calendar, stride streams and statistics stay as they were.
func TestCacheStateRoundTrip(t *testing.T) {
	cfg := testConfig()
	src := NewHierarchy(cfg)
	now := uint64(0)
	for i := uint64(0); i < 3_000; i++ {
		now = src.Access((i*i*7)%(1<<20)*LineSize, now+1, i%5 == 0, int(i%4)).Done
		src.Prefetch((1<<21+i)*LineSize, now, SrcRunahead)
	}
	st := src.ExportCaches()

	dst := NewHierarchy(cfg)
	dst.Access(0x1000, 5, true, 1) // state of its own that must survive
	stats, mshr := dst.Stats, len(dst.mshr.ents)
	if err := dst.ImportCaches(st); err != nil {
		t.Fatal(err)
	}
	if dst.Stats != stats || len(dst.mshr.ents) != mshr {
		t.Error("ImportCaches touched statistics or the MSHR file")
	}
	a, b := src.Snapshot(), dst.Snapshot()
	for i, pair := range [][2]CacheSnapshot{{a.L1D, b.L1D}, {a.L2, b.L2}, {a.L3, b.L3}} {
		if pair[0].UseClock != pair[1].UseClock || !bytes.Equal(pair[0].Ways, pair[1].Ways) {
			t.Errorf("level %d differs after import", i+1)
		}
	}
	// The exported state is a copy: traffic in either hierarchy must not
	// reach it.
	src.Warm(0x7777000, true)
	dst.Warm(0x8888000, true)
	third := NewHierarchy(cfg)
	if err := third.ImportCaches(st); err != nil {
		t.Fatal(err)
	}
	if c := third.Snapshot(); !bytes.Equal(c.L1D.Ways, b.L1D.Ways) || !bytes.Equal(c.L3.Ways, b.L3.Ways) {
		t.Error("exported state changed after later traffic")
	}

	small := cfg
	small.L3.SizeBytes /= 2
	if err := NewHierarchy(small).ImportCaches(st); err == nil {
		t.Error("state of another geometry imported without error")
	}
}

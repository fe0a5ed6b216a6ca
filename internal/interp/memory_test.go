package interp

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// modelPair is one memory in both implementations, at the same place in the
// same fork tree.
type modelPair struct {
	m      *Memory
	r      *refMemory
	parent *modelPair
	depth  int
	frozen bool // has been forked: no further stores (see TestMemoryMatchesReferenceModel)
}

func (p *modelPair) fork() *modelPair {
	p.frozen = true
	return &modelPair{m: p.m.Fork(), r: p.r.Fork(), parent: p, depth: p.depth + 1}
}

// freshSibling is an empty fork of p's parent (an empty root for a root),
// the memory a checkpoint restores onto.
func (p *modelPair) freshSibling() *modelPair {
	if p.parent == nil {
		return &modelPair{m: NewMemory(), r: &refMemory{}}
	}
	return &modelPair{m: p.parent.m.Fork(), r: p.parent.r.Fork(), parent: p.parent, depth: p.depth}
}

// modelAnchors are the addresses the random sequences cluster around: the
// edges of a block, a page and a leaf, a leaf far beyond whatever the
// directory has grown to, both sides of farLimit, and wild ones.
var modelAnchors = []uint64{
	0,
	3 << blockShift,
	5 << pageShift,
	1 << leafShift,
	3 << leafShift,
	40<<leafShift + 6<<pageShift,
	900 << leafShift,
	farLimit - 1<<leafShift,
	farLimit,
	farLimit + 7<<pageShift,
	3 * farLimit,
	0xdead_beef_0000,
	1 << 63,
}

// modelAddr draws an address within a few blocks either side of an anchor,
// so that sequences revisit words and straddle the boundary the anchor sits
// on. Unless full, the addresses just below farLimit move above it: they
// grow a directory to its 512 KiB limit, which every fork then copies, and
// one seed in three is enough of that.
func modelAddr(rng *rand.Rand, full bool) uint64 {
	a := modelAnchors[rng.Intn(len(modelAnchors))] + uint64(rng.Intn(4*blockWords)-2*blockWords)*8
	if !full && a >= farLimit/2 && a < farLimit {
		a += farLimit
	}
	return a
}

// mappable reports whether Map may map n words at addr in m: every block
// they span is below farLimit, unmapped, and in no leaf m shares.
func mappable(m *Memory, addr uint64, n int) bool {
	if addr >= farLimit {
		return false
	}
	for a := addr; a < addr+uint64(n)*8; a += 1 << blockShift {
		if a >= farLimit || m.block(a) != nil {
			return false
		}
		if li := a >> leafShift; li < uint64(len(m.dir)) && m.dir[li] != nil && (m.dir[li].owner != m || m.forked.Load()) {
			return false
		}
	}
	return true
}

// mapRandom maps a random array at a random block-aligned address of p, if
// Map may map it there, fills it with random words in place and writes the
// same words to the reference with StoreSlice. It reports whether it
// mapped.
func mapRandom(rng *rand.Rand, p *modelPair, touched *[]uint64) bool {
	// Within a leaf of an anchor, so that the blocks are often still fresh
	// and stores near the anchor land in mapped ones.
	a := modelAnchors[rng.Intn(len(modelAnchors))] + uint64(rng.Intn(leafBlocks))<<blockShift
	n := 1 + rng.Intn(3*pageWords)
	if !mappable(p.m, a, n) {
		return false
	}
	words := p.m.Map(a, n)
	for i := range words {
		words[i] = rng.Uint64()
	}
	p.r.StoreSlice(a, words)
	for i := 0; i < n; i += 1 + rng.Intn(blockWords) {
		*touched = append(*touched, a+uint64(i)*8)
	}
	*touched = append(*touched, a+uint64(n)*8-8, a+uint64(n)*8)
	return true
}

// TestMemoryMatchesReferenceModel drives the radix table and the
// map-and-chain memory it replaced with the same random sequences of
// maps, stores, slice stores, forks (chains to depth 20, with siblings),
// snapshots and restores, and wants every load, every PageDelta byte and
// every Footprint equal. Only memories that have not been forked are
// written: what a fork sees of its parent's later stores is the one place
// the two differ on purpose (the fork-time-contents test above pins that).
func TestMemoryMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 9; seed++ {
		rng, full := rand.New(rand.NewSource(seed)), seed%3 == 0
		pairs := []*modelPair{{m: NewMemory(), r: &refMemory{}}}
		var touched []uint64
		// compare checks a sample of words of p, or all touched ones.
		compare := func(what string, p *modelPair, all bool) {
			t.Helper()
			for i, a := range touched {
				if !all && rng.Intn(8) != 0 && i < len(touched)-8 {
					continue
				}
				if got, want := p.m.Load64(a), p.r.Load64(a); got != want {
					t.Fatalf("seed %d, %s: depth-%d memory reads %#x at %#x, reference %#x", seed, what, p.depth, got, a, want)
				}
			}
			if got, want := p.m.Footprint(), p.r.Footprint(); got != want {
				t.Fatalf("seed %d, %s: depth-%d footprint %d, reference %d", seed, what, p.depth, got, want)
			}
		}
		writable := func() *modelPair {
			for {
				if p := pairs[rng.Intn(len(pairs))]; !p.frozen {
					return p
				}
			}
		}
		tip := pairs[0] // the end of the longest chain
		// The root starts as an image does, mapped a few arrays at a time,
		// so every fork reads a base built through Map.
		maps := 0
		for maps < 4 {
			if mapRandom(rng, pairs[0], &touched) {
				maps++
			}
		}
		for op := 0; op < 1500; op++ {
			switch k := rng.Intn(100); {
			case k < 5:
				if mapRandom(rng, writable(), &touched) {
					maps++
				}
			case k < 45:
				p, a, v := writable(), modelAddr(rng, full), rng.Uint64()>>uint(rng.Intn(64))
				p.m.Store64(a, v)
				p.r.Store64(a, v)
				touched = append(touched, a)
			case k < 55:
				p, a := writable(), modelAddr(rng, full)
				vals := make([]uint64, rng.Intn(3*pageWords))
				for i := range vals {
					vals[i] = rng.Uint64()
				}
				p.m.StoreSlice(a, vals)
				p.r.StoreSlice(a, vals)
				for i := 0; i < len(vals); i += 1 + rng.Intn(blockWords) {
					touched = append(touched, a+uint64(i)*8)
				}
				touched = append(touched, a+uint64(len(vals))*8-8, a+uint64(len(vals))*8)
			case k < 75:
				p, a := pairs[rng.Intn(len(pairs))], modelAddr(rng, full)
				if got, want := p.m.Load64(a), p.r.Load64(a); got != want {
					t.Fatalf("seed %d: depth-%d memory reads %#x at %#x, reference %#x", seed, p.depth, got, a, want)
				}
			case k < 83:
				// Lengthen the chain most of the time, branch off anywhere
				// the rest; always leave something writable.
				from := tip
				if rng.Intn(3) == 0 || tip.depth == 20 {
					from = pairs[rng.Intn(len(pairs))]
				}
				if from.depth == 20 {
					continue
				}
				child := from.fork()
				if from == tip {
					tip = child
				}
				pairs = append(pairs, child)
			case k < 90:
				compare("spot check", pairs[rng.Intn(len(pairs))], false)
			default:
				p := pairs[rng.Intn(len(pairs))]
				deltas, want := p.m.SnapshotPages(), p.r.SnapshotPages()
				if !reflect.DeepEqual(deltas, want) {
					t.Fatalf("seed %d: depth-%d snapshot has %d pages, reference %d, or their bytes differ", seed, p.depth, len(deltas), len(want))
				}
				g := p.freshSibling()
				g.m.Store64(modelAddr(rng, full), 0xdead) // restore must drop what the target owned
				if err := g.m.RestorePages(deltas); err != nil {
					t.Fatalf("seed %d: restore: %v", seed, err)
				}
				if err := g.r.RestorePages(deltas); err != nil {
					t.Fatalf("seed %d: reference restore: %v", seed, err)
				}
				compare("restored", g, true)
				for _, a := range touched {
					if got, want := g.m.Load64(a), p.m.Load64(a); got != want {
						t.Fatalf("seed %d: restored memory reads %#x at %#x, its source %#x", seed, got, a, want)
					}
				}
				if again := g.m.SnapshotPages(); !reflect.DeepEqual(again, deltas) {
					t.Fatalf("seed %d: restored memory snapshots differently from its source", seed)
				}
			}
		}
		if tip.depth < 15 {
			t.Errorf("seed %d: deepest chain is %d forks, want the sequence to reach at least 15", seed, tip.depth)
		}
		if maps < 15 {
			t.Errorf("seed %d: %d arrays mapped, want the sequence to map at least 15", seed, maps)
		}
		for _, p := range pairs {
			compare("final", p, true)
		}
	}
}

// mustPanic runs f and wants a panic whose message contains want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

func TestMapPanicsOnUnalignedAddress(t *testing.T) {
	m := NewMemory()
	mustPanic(t, "aligned", func() { m.Map(1<<20+8, 4) })
	mustPanic(t, "aligned", func() { m.Map(farLimit-1<<blockShift, 2*blockWords) })
	if fp := m.Footprint(); fp != 0 {
		t.Errorf("a refused Map mapped %d bytes", fp)
	}
}

func TestMapPanicsOnMappedBlock(t *testing.T) {
	m := NewMemory()
	m.Store64(1<<20+3*blockWords*8+16, 1)
	mustPanic(t, "already mapped", func() { m.Map(1<<20, 4*blockWords) })
	if got := m.Load64(1<<20 + 3*blockWords*8 + 16); got != 1 {
		t.Errorf("a refused Map changed a mapped word to %d", got)
	}
}

func TestMapPanicsOnLeafSharedWithFork(t *testing.T) {
	base := NewMemory()
	base.Map(1<<20, blockWords)
	f := base.Fork()
	// The fork reads the leaf through from its base; the base's leaf now
	// sits in the fork's directory.
	mustPanic(t, "shared with a fork", func() { f.Map(1<<20+1<<blockShift, 1) })
	mustPanic(t, "shared with a fork", func() { base.Map(1<<20+1<<blockShift, 1) })
	// A leaf neither has yet is the fork's own to map.
	f.Map(8<<leafShift, 1)[0] = 5
	if f.Load64(8<<leafShift) != 5 || base.Load64(8<<leafShift) != 0 {
		t.Error("a fork's Map into a fresh leaf is not its own")
	}
}

// FuzzRestorePages feeds RestorePages two arbitrary pages over a base that
// maps some of what they may name. A malformed delta must be an error,
// never a panic; one that is accepted must survive snapshot and restore.
func FuzzRestorePages(f *testing.F) {
	f.Add(uint64(1), wordRecs(0, 1, 511, 2), uint64(9), wordRecs(3, 0))
	f.Add(uint64(0), wordRecs(63, 7, 64, 8), uint64(farLimit>>pageShift), wordRecs(0, 1))
	f.Add(uint64(1), wordRecs(4, 1, 4, 2), uint64(2), wordRecs(0, 1))
	f.Add(uint64(2), wordRecs(0, 1), uint64(1), wordRecs(0, 1))
	f.Add(uint64(1), wordRecs(pageWords, 1), uint64(2), []byte{1, 2, 3})
	f.Add(uint64(1)<<52, wordRecs(0, 1), ^uint64(0), wordRecs(511, 1))
	f.Add(uint64(1)<<52-1, wordRecs(511, 1), uint64(1)<<52, make([]byte, pageWords*8))
	f.Fuzz(func(t *testing.T, pn1 uint64, d1 []byte, pn2 uint64, d2 []byte) {
		base := NewMemory()
		base.StoreSlice(0, []uint64{1, 2, 3, 4, 5, 6, 7, 8})
		base.Store64(pn1<<pageShift|64<<3, 5)
		deltas := []PageDelta{{PN: pn1, Data: d1}, {PN: pn2, Data: d2}}
		m := base.Fork()
		if m.RestorePages(deltas) != nil {
			return
		}
		g := base.Fork()
		snap := m.SnapshotPages()
		if err := g.RestorePages(snap); err != nil {
			t.Fatalf("a snapshot does not restore: %v", err)
		}
		for _, pn := range []uint64{0, pn1, pn2} {
			for w := uint64(0); w < pageWords; w++ {
				a := pn<<pageShift | w<<3
				if got, want := g.Load64(a), m.Load64(a); got != want {
					t.Fatalf("word %#x = %#x after a round trip, want %#x", a, got, want)
				}
			}
		}
		if again := g.SnapshotPages(); !reflect.DeepEqual(again, snap) {
			t.Fatal("a restored memory snapshots differently from its source")
		}
	})
}

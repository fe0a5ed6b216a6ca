package interp

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// wordRecs packs (index, value) pairs the way PageDelta.Data holds them.
func wordRecs(pairs ...uint64) []byte {
	var data []byte
	for i := 0; i < len(pairs); i += 2 {
		data = binary.LittleEndian.AppendUint16(data, uint16(pairs[i]))
		data = binary.LittleEndian.AppendUint64(data, pairs[i+1])
	}
	return data
}

// TestPageDeltaRoundTrip is the property the checkpoint format rests on:
// whatever a fork stored, SnapshotPages followed by RestorePages on a
// fresh fork of the same parent reads back every word, and the delta holds
// only the words that differ from the parent's view. Both shapes a
// checkpoint meets are covered: the frontend (a fork of a root image) and
// the Oracle's look-ahead view (a fork of a fork that owns pages itself).
func TestPageDeltaRoundTrip(t *testing.T) {
	const nPages = 24
	addr := func(pn, word uint64) uint64 { return pn<<pageShift | word<<3 }
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		root := NewMemory()
		for i := 0; i < 600; i++ {
			root.Store64(addr(uint64(rng.Intn(nPages/2)), uint64(rng.Intn(pageWords))), rng.Uint64())
		}
		const absentPN, fullPN, onePN, quietPN = nPages + 1, nPages + 2, nPages + 3, nPages + 4
		root.Store64(addr(quietPN, 1), 77)
		mid := root.Fork()
		for i := 0; i < 200; i++ {
			mid.Store64(addr(uint64(rng.Intn(nPages)), uint64(rng.Intn(pageWords))), rng.Uint64())
		}
		for _, shape := range []struct {
			name   string
			parent *Memory
		}{{"fork of root", root}, {"fork of fork", mid}} {
			name, parent := shape.name, shape.parent
			f := parent.Fork()
			for i := 0; i < 300; i++ {
				f.Store64(addr(uint64(rng.Intn(nPages)), uint64(rng.Intn(pageWords))), rng.Uint64())
			}
			// A store of the value already there, and a zero stored to a
			// page no ancestor holds: owned pages that read as the parent.
			f.Store64(addr(quietPN, 1), 77)
			f.Store64(addr(absentPN, 3), 0)
			// A fully rewritten page and a one-word page.
			for w := uint64(0); w < pageWords; w++ {
				f.Store64(addr(fullPN, w), w+1)
			}
			f.Store64(addr(onePN, 511), 9)

			deltas := f.SnapshotPages()
			if again := f.SnapshotPages(); !reflect.DeepEqual(deltas, again) {
				t.Fatalf("seed %d, %s: two snapshots of one memory differ", seed, name)
			}
			sizes := make(map[uint64]int)
			for i, d := range deltas {
				if i > 0 && d.PN <= deltas[i-1].PN {
					t.Fatalf("seed %d, %s: page %#x after %#x, want strictly ascending", seed, name, d.PN, deltas[i-1].PN)
				}
				sizes[d.PN] = len(d.Data)
			}
			for _, pn := range []uint64{quietPN, absentPN} {
				if n, ok := sizes[pn]; ok {
					t.Errorf("seed %d, %s: page %#x reads as the parent's but is journalled (%d bytes)", seed, name, pn, n)
				}
			}
			if sizes[fullPN] != pageWords*wordRecBytes || sizes[onePN] != wordRecBytes {
				t.Errorf("seed %d, %s: rewritten page %d bytes, one-word page %d; want %d and %d",
					seed, name, sizes[fullPN], sizes[onePN], pageWords*wordRecBytes, wordRecBytes)
			}

			g := parent.Fork()
			g.Store64(addr(0, 0), 0xdead) // restore must drop what the target owned
			if err := g.RestorePages(deltas); err != nil {
				t.Fatalf("seed %d, %s: restore: %v", seed, name, err)
			}
			diffs := 0
			for pn := uint64(0); pn <= quietPN+1; pn++ {
				for w := uint64(0); w < pageWords; w++ {
					a := addr(pn, w)
					if got, want := g.Load64(a), f.Load64(a); got != want {
						t.Fatalf("seed %d, %s: word %#x = %#x after restore, want %#x", seed, name, a, got, want)
					}
					if f.Load64(a) != parent.Load64(a) {
						diffs++
					}
				}
			}
			total := 0
			for _, n := range sizes {
				total += n
			}
			if total != diffs*wordRecBytes {
				t.Errorf("seed %d, %s: delta is %d bytes for %d changed words, want %d",
					seed, name, total, diffs, diffs*wordRecBytes)
			}
			if same := g.SnapshotPages(); !reflect.DeepEqual(same, deltas) {
				t.Errorf("seed %d, %s: restored memory snapshots differently from its source", seed, name)
			}
		}
	}
}

// TestRestorePagesRejectsMalformed feeds RestorePages deltas no
// SnapshotPages produces. Each must be an error: a panic would take the
// worker down with the file, and applying the delta anyway would let the
// last of two conflicting records win silently.
func TestRestorePagesRejectsMalformed(t *testing.T) {
	tooMany := make([]uint64, 0, 2*(pageWords+1))
	for i := uint64(0); i <= pageWords; i++ {
		tooMany = append(tooMany, i, 1)
	}
	cases := map[string][]PageDelta{
		"empty page":            {{PN: 1, Data: nil}},
		"ragged length":         {{PN: 1, Data: wordRecs(0, 1)[:9]}},
		"a dense v2 page":       {{PN: 1, Data: make([]byte, pageWords*8)}},
		"more than 512 words":   {{PN: 1, Data: wordRecs(tooMany...)}},
		"index out of range":    {{PN: 1, Data: wordRecs(pageWords, 1)}},
		"duplicate word":        {{PN: 1, Data: wordRecs(4, 1, 4, 2)}},
		"descending words":      {{PN: 1, Data: wordRecs(5, 1, 4, 2)}},
		"duplicate page":        {{PN: 1, Data: wordRecs(0, 1)}, {PN: 1, Data: wordRecs(1, 1)}},
		"descending page":       {{PN: 2, Data: wordRecs(0, 1)}, {PN: 1, Data: wordRecs(0, 1)}},
		"bad page after a good": {{PN: 1, Data: wordRecs(0, 1)}, {PN: 2, Data: []byte{1, 2, 3}}},
	}
	for name, deltas := range cases {
		if err := NewMemory().Fork().RestorePages(deltas); err == nil {
			t.Errorf("%s: restored without error", name)
		}
	}
	if err := NewMemory().Fork().RestorePages([]PageDelta{{PN: 1, Data: wordRecs(0, 1, 511, 2)}, {PN: 9, Data: wordRecs(3, 0)}}); err != nil {
		t.Errorf("well-formed delta refused: %v", err)
	}
}

package bpred

import (
	"reflect"
	"testing"
)

// refPredictor is the predictor as first written: per-table slices, and
// every table's index and tag folded from the raw history on every branch.
// It is the reference the flat, incrementally folded Predictor must match
// prediction for prediction.
type refPredictor struct {
	cfg         Config
	bimodal     []int8
	tables      [][]taggedEntry
	ghist       uint64
	allocFail   int
	lookups     uint64
	mispredicts uint64
}

func newRef(cfg Config) *refPredictor {
	r := &refPredictor{cfg: cfg, bimodal: make([]int8, 1<<cfg.BimodalBits)}
	for range cfg.HistLengths {
		r.tables = append(r.tables, make([]taggedEntry, 1<<cfg.TableBits))
	}
	return r
}

func (r *refPredictor) fold(length, bits int) uint64 {
	if length > 64 {
		length = 64
	}
	if bits <= 0 {
		return 0
	}
	h := r.ghist & (1<<uint(length) - 1)
	var f uint64
	for ; h != 0; h >>= uint(bits) {
		f ^= h & (1<<uint(bits) - 1)
	}
	return f
}

func (r *refPredictor) update(pc uint64, taken bool) bool {
	r.lookups++
	n := len(r.tables)
	idx, tags := make([]uint32, n), make([]uint16, n)
	ib, tb := uint(r.cfg.TableBits), uint(r.cfg.TagBits)
	for t, l := range r.cfg.HistLengths {
		fi, ft := r.fold(l, r.cfg.TableBits), r.fold(l, r.cfg.TagBits-1)
		idx[t] = uint32((pc ^ pc>>ib ^ fi ^ fi<<1) & (1<<ib - 1))
		tags[t] = uint16((pc ^ pc>>5 ^ ft) & (1<<tb - 1))
	}
	provider := -1
	for t := n - 1; t >= 0; t-- {
		if r.tables[t][idx[t]].tag == tags[t] {
			provider = t
			break
		}
	}
	bi := pc & uint64(len(r.bimodal)-1)
	var pred bool
	if provider >= 0 {
		pred = r.tables[provider][idx[provider]].ctr >= 0
	} else {
		pred = r.bimodal[bi] >= 0
	}
	mispred := pred != taken
	if mispred {
		r.mispredicts++
	}
	if provider >= 0 {
		e := &r.tables[provider][idx[provider]]
		if taken && e.ctr < 3 {
			e.ctr++
		} else if !taken && e.ctr > -4 {
			e.ctr--
		}
		if !mispred && e.useful < 3 {
			e.useful++
		}
	} else if taken && r.bimodal[bi] < 1 {
		r.bimodal[bi]++
	} else if !taken && r.bimodal[bi] > -2 {
		r.bimodal[bi]--
	}
	if mispred && provider < n-1 {
		allocated := false
		for t := provider + 1; t < n && !allocated; t++ {
			if e := &r.tables[t][idx[t]]; e.useful == 0 {
				e.tag, e.ctr, allocated = tags[t], -1, true
				if taken {
					e.ctr = 0
				}
			}
		}
		if !allocated {
			if r.allocFail++; r.allocFail >= r.cfg.UsefulReset {
				r.allocFail = 0
				for _, tab := range r.tables {
					for i := range tab {
						if tab[i].useful > 0 {
							tab[i].useful--
						}
					}
				}
			}
		}
	}
	r.ghist = r.ghist<<1 | b2u(taken)
	return mispred
}

// snapshot encodes the reference state the way Snapshot documents it.
func (r *refPredictor) snapshot() Snapshot {
	s := Snapshot{GHist: r.ghist, AllocFail: r.allocFail, Lookups: r.lookups, Mispredicts: r.mispredicts,
		Bimodal: make([]byte, len(r.bimodal)), Tables: make([][]byte, len(r.tables))}
	for i, c := range r.bimodal {
		s.Bimodal[i] = byte(c)
	}
	for t, tab := range r.tables {
		for _, e := range tab {
			s.Tables[t] = append(s.Tables[t], byte(e.ctr), e.useful, byte(e.tag), byte(e.tag>>8))
		}
	}
	return s
}

// Seeded random branch streams through the reference and the predictor,
// under the default geometry and the edge ones, with a snapshot round trip
// part way: every outcome, the counters and the encoded state agree.
func TestPredictorMatchesReferenceModel(t *testing.T) {
	for ci, cfg := range append([]Config{DefaultConfig()}, edgeConfigs()...) {
		ref, p := newRef(cfg), New(cfg)
		rng := uint64(ci + 1)
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		for i := 0; i < 20000; i++ {
			// A few dozen static branches, half of them biased, so the
			// tagged tables both hit and allocate.
			x := next()
			pc := x % 48 * 4
			taken := x>>8&7 != 0
			if pc%8 == 0 {
				taken = x>>11&1 == 0
			}
			if got, want := p.Update(pc, taken), ref.update(pc, taken); got != want {
				t.Fatalf("config %d branch %d: mispredict %v, reference %v", ci, i, got, want)
			}
			if i == 7777 {
				q := New(cfg)
				if err := q.Restore(p.Snapshot()); err != nil {
					t.Fatal(err)
				}
				p = q
			}
		}
		if got, want := p.Snapshot(), ref.snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("config %d: snapshot differs from the reference state", ci)
		}
	}
}

// Update is on the core's per-branch path: it must not allocate.
func TestUpdateDoesNotAllocate(t *testing.T) {
	p := New(DefaultConfig())
	var i uint64
	if n := testing.AllocsPerRun(1000, func() {
		i++
		p.Update(i%64*4, i%3 != 0)
	}); n != 0 {
		t.Fatalf("Update allocates %.1f times per call", n)
	}
}

// BenchmarkUpdate is one predict+update over a stream of biased and
// random branches.
func BenchmarkUpdate(b *testing.B) {
	p := New(DefaultConfig())
	rng := uint64(1)
	for i := 0; i < b.N; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		p.Update(rng%256*4, rng>>20&3 != 0)
	}
}

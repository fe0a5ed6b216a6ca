// Package bpred implements a TAGE-style conditional branch predictor in the
// spirit of the 8 KB TAGE-SC-L used by the paper's baseline (CBP-2016): a
// bimodal base predictor plus tagged predictor tables indexed with
// geometrically increasing global-history lengths, with usefulness-guided
// allocation on mispredictions.
package bpred

import "fmt"

// Config sizes the predictor.
type Config struct {
	BimodalBits  int   // log2 entries of the base bimodal table
	TableBits    int   // log2 entries of each tagged table
	TagBits      int   // tag width
	HistLengths  []int // geometric history lengths, shortest first
	UsefulReset  int   // allocation failures before useful counters decay
	MispredPenal uint64
}

// DefaultConfig approximates an 8 KB TAGE budget.
func DefaultConfig() Config {
	return Config{
		BimodalBits: 12,
		TableBits:   9,
		TagBits:     9,
		HistLengths: []int{4, 8, 16, 32, 64, 128, 256, 512},
		UsefulReset: 2048,
	}
}

// Validate rejects predictor configurations that cannot be constructed.
// These arrive over the dvrd wire inside a core Config, so out-of-range
// table sizes are request errors: a negative bit count panics the shift in
// New, and an oversized one is an allocation bomb.
func (c Config) Validate() error {
	if c.BimodalBits < 0 || c.BimodalBits > 28 {
		return fmt.Errorf("bpred: bimodal_bits must be in [0,28], got %d", c.BimodalBits)
	}
	if c.TableBits < 0 || c.TableBits > 24 {
		return fmt.Errorf("bpred: table_bits must be in [0,24], got %d", c.TableBits)
	}
	if c.TagBits < 1 || c.TagBits > 16 {
		return fmt.Errorf("bpred: tag_bits must be in [1,16], got %d", c.TagBits)
	}
	if len(c.HistLengths) > 64 {
		return fmt.Errorf("bpred: at most 64 history lengths, got %d", len(c.HistLengths))
	}
	for i, h := range c.HistLengths {
		if h < 0 {
			return fmt.Errorf("bpred: history length %d is negative (%d)", i, h)
		}
	}
	return nil
}

type taggedEntry struct {
	ctr    int8 // 3-bit signed counter, -4..3
	tag    uint16
	useful uint8
}

// Predictor is a TAGE predictor. Not safe for concurrent use.
type Predictor struct {
	cfg       Config
	bimodal   []int8 // 2-bit counters, -2..1
	tables    [][]taggedEntry
	ghist     uint64 // folded via multiple shifts; we keep 64 bits raw
	histLen   []int
	allocFail int

	// Memoized foldHistory values per table for the current ghist (folds
	// depend only on ghist, and several geometric lengths clamp to the same
	// effective 64 bits). Derived state: never snapshotted, rebuilt lazily
	// whenever ghist moves away from foldG.
	foldIdx []uint64
	foldTag []uint64
	foldG   uint64
	foldOK  bool

	// The table index and tag of the branch being looked up, per table:
	// filled by hash at the top of predictInternal and read by Update for
	// the same pc and history, so each is computed once per branch.
	idx  []uint32
	tags []uint16

	// Stats
	Lookups     uint64
	Mispredicts uint64
}

// New returns a predictor with the given configuration.
func New(cfg Config) *Predictor {
	p := &Predictor{
		cfg:     cfg,
		bimodal: make([]int8, 1<<cfg.BimodalBits),
		histLen: cfg.HistLengths,
		foldIdx: make([]uint64, len(cfg.HistLengths)),
		foldTag: make([]uint64, len(cfg.HistLengths)),
		idx:     make([]uint32, len(cfg.HistLengths)),
		tags:    make([]uint16, len(cfg.HistLengths)),
	}
	p.tables = make([][]taggedEntry, len(cfg.HistLengths))
	for i := range p.tables {
		p.tables[i] = make([]taggedEntry, 1<<cfg.TableBits)
	}
	return p
}

func (p *Predictor) foldHistory(length, bits int) uint64 {
	if length > 64 {
		length = 64
	}
	h := p.ghist & ((1 << uint(length)) - 1)
	var folded uint64
	for h != 0 {
		folded ^= h & ((1 << uint(bits)) - 1)
		h >>= uint(bits)
	}
	return folded
}

// refold refreshes the memoized per-table folds when ghist has moved.
// Update advances ghist one bit at a time, so the common case shifts each
// fold incrementally (foldStep) instead of re-folding from scratch; any
// other movement (first use, Restore) recomputes. Lengths sorted
// shortest-first let consecutive tables with the same effective (clamped)
// length share one computation.
func (p *Predictor) refold() {
	if p.foldOK && p.foldG == p.ghist {
		return
	}
	ib, tb := p.cfg.TableBits, p.cfg.TagBits-1
	if p.foldOK && p.ghist&^1 == p.foldG<<1 {
		b := p.ghist & 1
		prev := -1
		for t, l := range p.histLen {
			if l > 64 {
				l = 64
			}
			if t > 0 && l == prev {
				p.foldIdx[t] = p.foldIdx[t-1]
				p.foldTag[t] = p.foldTag[t-1]
			} else {
				out := p.foldG >> uint(l-1) & 1
				p.foldIdx[t] = foldStep(p.foldIdx[t], out, b, l, ib)
				p.foldTag[t] = foldStep(p.foldTag[t], out, b, l, tb)
			}
			prev = l
		}
		p.foldG = p.ghist
		return
	}
	prev := -1
	for t, l := range p.histLen {
		if l > 64 {
			l = 64
		}
		if t > 0 && l == prev {
			p.foldIdx[t] = p.foldIdx[t-1]
			p.foldTag[t] = p.foldTag[t-1]
		} else {
			p.foldIdx[t] = p.foldHistory(l, ib)
			p.foldTag[t] = p.foldHistory(l, tb)
		}
		prev = l
	}
	p.foldG = p.ghist
	p.foldOK = true
}

// foldStep advances one chunk-XOR fold by a single history shift: with
// history h' = (h<<1|b) & mask(length), every bit of h moves up one
// position inside its width-`bits` chunk, the bits at each chunk top wrap
// to bit 0 of the next chunk (their XOR is f's top bit), bit length-1 of
// h (`out`) leaves the window, and b enters at bit 0. The result is
// bit-identical to foldHistory(length, bits) over h'.
func foldStep(f, out, b uint64, length, bits int) uint64 {
	if length <= 0 || bits <= 0 {
		return 0
	}
	f ^= out << uint((length-1)%bits)
	f = f<<1 | b
	return (f ^ f>>uint(bits)) & (1<<uint(bits) - 1)
}

// hash computes every table's index and tag for the branch at pc under the
// current history, in one pass after one refold.
func (p *Predictor) hash(pc uint64) {
	p.refold()
	ib, tb := uint(p.cfg.TableBits), uint(p.cfg.TagBits)
	pi, pt := pc^pc>>ib, pc^pc>>5
	for t, f := range p.foldIdx {
		p.idx[t] = uint32((pi ^ f ^ f<<1) & (1<<ib - 1))
		p.tags[t] = uint16((pt ^ p.foldTag[t]) & (1<<tb - 1))
	}
}

// Predict returns the taken/not-taken prediction for the branch at pc.
func (p *Predictor) Predict(pc uint64) bool {
	p.Lookups++
	pred, _, _ := p.predictInternal(pc)
	return pred
}

func (p *Predictor) predictInternal(pc uint64) (pred bool, provider int, base bool) {
	p.hash(pc)
	for t := len(p.tables) - 1; t >= 0; t-- {
		if e := &p.tables[t][p.idx[t]]; e.tag == p.tags[t] {
			return e.ctr >= 0, t, false
		}
	}
	return p.bimodal[pc&uint64(len(p.bimodal)-1)] >= 0, -1, true
}

// Update predicts, trains the predictor with the branch outcome and
// advances the global history. It returns whether the prediction was wrong.
func (p *Predictor) Update(pc uint64, taken bool) bool {
	p.Lookups++
	pred, provider, _ := p.predictInternal(pc)
	mispred := pred != taken
	if mispred {
		p.Mispredicts++
	}

	if provider >= 0 {
		e := &p.tables[provider][p.idx[provider]]
		if taken && e.ctr < 3 {
			e.ctr++
		} else if !taken && e.ctr > -4 {
			e.ctr--
		}
		if !mispred && e.useful < 3 {
			e.useful++
		}
	} else {
		b := &p.bimodal[pc&uint64(len(p.bimodal)-1)]
		if taken && *b < 1 {
			*b++
		} else if !taken && *b > -2 {
			*b--
		}
	}

	// On a misprediction, allocate an entry in a longer-history table.
	if mispred && provider < len(p.tables)-1 {
		allocated := false
		for t := provider + 1; t < len(p.tables); t++ {
			e := &p.tables[t][p.idx[t]]
			if e.useful == 0 {
				e.tag = p.tags[t]
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				allocated = true
				break
			}
		}
		if !allocated {
			p.allocFail++
			if p.allocFail >= p.cfg.UsefulReset {
				p.allocFail = 0
				for t := range p.tables {
					for i := range p.tables[t] {
						if p.tables[t][i].useful > 0 {
							p.tables[t][i].useful--
						}
					}
				}
			}
		}
	}

	p.ghist = p.ghist<<1 | b2u(taken)
	return mispred
}

// MispredictRate returns mispredictions per lookup.
func (p *Predictor) MispredictRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Lookups)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Warm trains the predictor on one resolved branch without touching the
// Lookups/Mispredicts counters. The sampled-simulation replayer replays a
// recorded functional branch trace through Warm before timing a window,
// so the tables carry history while the accuracy statistics stay clean
// for the window's boundary delta.
func (p *Predictor) Warm(pc uint64, taken bool) {
	l, m := p.Lookups, p.Mispredicts
	p.Update(pc, taken)
	p.Lookups, p.Mispredicts = l, m
}

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
	if b := c.storageBytes(); b > maxStorageBytes {
		return fmt.Errorf("bpred: tables take %d bytes, at most %d", b, maxStorageBytes)
	}
	return nil
}

// maxStorageBytes bounds a predictor's total table storage: thousands of
// times the default 8 KB-class budget, low enough that a request cannot
// make dvrd allocate gigabytes (64 tables of 2^24 entries each pass the
// per-field checks).
const maxStorageBytes = 64 << 20

// storageBytes is the predictor's table storage: one byte per bimodal
// counter and four per tagged entry. Call it on a config whose bit counts
// are in range.
func (c Config) storageBytes() int {
	return 1<<c.BimodalBits + 4*len(c.HistLengths)<<c.TableBits
}

// taggedEntry is one tagged-table entry, four bytes: the tag first keeps
// the struct unpadded.
type taggedEntry struct {
	tag    uint16
	ctr    int8 // 3-bit signed counter, -4..3
	useful uint8
}

// fold is the XOR-fold of the newest bits of ghist for one effective
// history length, into index and tag widths, kept current as each branch
// shifts one bit in. Tables whose lengths clamp to the same 64 bits share
// one fold.
type fold struct {
	// Constants, computed in New. A step shifts history bit outBit out of
	// the window and XORs it in at idxRot/tagRot (its position within the
	// top chunk); the masks are 0 for a zero-length history or a
	// zero-width fold, whose fold is 0 whatever the history.
	outBit         uint
	idxRot, tagRot uint
	idxW, tagW     uint
	idxMask        uint64
	tagMask        uint64

	idx, tag uint64 // the folds of the current ghist
}

// table is one tagged table's per-branch working set.
type table struct {
	base uint32 // index of the table's first entry in Predictor.tables
	fold int    // index of its history fold in Predictor.folds
	// slot (index into Predictor.tables) and tag of the branch being
	// looked up: filled by lookup, read by Update for the same pc and
	// history, so each is computed once per branch.
	slot uint32
	tag  uint16
}

// Predictor is a TAGE predictor. Not safe for concurrent use.
type Predictor struct {
	cfg     Config
	bimodal []int8 // 2-bit counters, -2..1
	// tables holds every tagged table back to back: table t's entry i is
	// tables[t<<TableBits|i].
	tables    []taggedEntry
	tab       []table
	folds     []fold
	ghist     uint64 // folded via multiple shifts; we keep 64 bits raw
	allocFail int

	// Stats
	Lookups     uint64
	Mispredicts uint64
}

// New returns a predictor with the given configuration.
func New(cfg Config) *Predictor {
	p := &Predictor{
		cfg:     cfg,
		bimodal: make([]int8, 1<<cfg.BimodalBits),
		tables:  make([]taggedEntry, len(cfg.HistLengths)<<cfg.TableBits),
		tab:     make([]table, len(cfg.HistLengths)),
	}
	ib, tb := cfg.TableBits, cfg.TagBits-1
	prev := -1
	for t, l := range cfg.HistLengths {
		l = effLen(l)
		if t == 0 || l != prev {
			f := fold{}
			if l > 0 {
				f.outBit = uint(l - 1)
				if ib > 0 {
					f.idxRot, f.idxW, f.idxMask = uint((l-1)%ib), uint(ib), 1<<uint(ib)-1
				}
				if tb > 0 {
					f.tagRot, f.tagW, f.tagMask = uint((l-1)%tb), uint(tb), 1<<uint(tb)-1
				}
			}
			p.folds = append(p.folds, f)
		}
		prev = l
		p.tab[t] = table{base: uint32(t) << uint(ib), fold: len(p.folds) - 1}
	}
	return p
}

// effLen clamps a history length to the 64 bits ghist keeps.
func effLen(length int) int {
	if length > 64 {
		return 64
	}
	return length
}

// foldHistory XOR-folds the newest length bits of ghist into width-bit
// chunks. A zero width folds to 0 (and would otherwise never finish).
func (p *Predictor) foldHistory(length, width int) uint64 {
	if width <= 0 {
		return 0
	}
	length = effLen(length)
	h := p.ghist & ((1 << uint(length)) - 1)
	var folded uint64
	for h != 0 {
		folded ^= h & ((1 << uint(width)) - 1)
		h >>= uint(width)
	}
	return folded
}

// refold recomputes every fold from ghist, after Restore moves it.
func (p *Predictor) refold() {
	for t, l := range p.cfg.HistLengths {
		f := &p.folds[p.tab[t].fold]
		f.idx = p.foldHistory(l, p.cfg.TableBits)
		f.tag = p.foldHistory(l, p.cfg.TagBits-1)
	}
}

// push shifts outcome b into the history and advances each fold by that
// one shift: with history h' = (h<<1|b) & mask(length), every bit of h
// moves up one position inside its chunk, the bits at each chunk top wrap
// to bit 0 of the next chunk (their XOR is the fold's top bit), bit
// length-1 of h (`out`) leaves the window, and b enters at bit 0. The
// result is bit-identical to foldHistory over h'.
func (p *Predictor) push(b uint64) {
	g := p.ghist
	p.ghist = g<<1 | b
	for i := range p.folds {
		f := &p.folds[i]
		out := g >> f.outBit & 1
		x := (f.idx^out<<f.idxRot)<<1 | b
		f.idx = (x ^ x>>f.idxW) & f.idxMask
		y := (f.tag^out<<f.tagRot)<<1 | b
		f.tag = (y ^ y>>f.tagW) & f.tagMask
	}
}

// Predict returns the taken/not-taken prediction for the branch at pc.
func (p *Predictor) Predict(pc uint64) bool {
	p.Lookups++
	pred, _ := p.lookup(pc)
	return pred
}

// lookup returns the prediction for pc and the table that provided it (-1
// for the bimodal base). It hashes the tables longest history first and
// stops at the first tag match, so each table from the provider up holds
// this branch's slot and tag: all that training and allocation read.
func (p *Predictor) lookup(pc uint64) (pred bool, provider int) {
	ib, tb := uint(p.cfg.TableBits), uint(p.cfg.TagBits)
	pi, pt := pc^pc>>ib, pc^pc>>5
	imask, tmask := uint64(1)<<ib-1, uint64(1)<<tb-1
	for t := len(p.tab) - 1; t >= 0; t-- {
		tt := &p.tab[t]
		f := &p.folds[tt.fold]
		tt.slot = tt.base | uint32((pi^f.idx^f.idx<<1)&imask)
		tt.tag = uint16((pt ^ f.tag) & tmask)
		if e := &p.tables[tt.slot]; e.tag == tt.tag {
			return e.ctr >= 0, t
		}
	}
	return p.bimodal[pc&uint64(len(p.bimodal)-1)] >= 0, -1
}

// Update predicts, trains the predictor with the branch outcome and
// advances the global history. It returns whether the prediction was wrong.
func (p *Predictor) Update(pc uint64, taken bool) bool {
	p.Lookups++
	pred, provider := p.lookup(pc)
	mispred := pred != taken
	if mispred {
		p.Mispredicts++
	}

	if provider >= 0 {
		e := &p.tables[p.tab[provider].slot]
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
	if mispred && provider < len(p.tab)-1 {
		allocated := false
		for t := provider + 1; t < len(p.tab); t++ {
			tt := &p.tab[t]
			if e := &p.tables[tt.slot]; e.useful == 0 {
				e.tag = tt.tag
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
				for i := range p.tables {
					if p.tables[i].useful > 0 {
						p.tables[i].useful--
					}
				}
			}
		}
	}

	p.push(b2u(taken))
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

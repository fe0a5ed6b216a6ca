// Package prefetch implements the non-runahead prefetching baselines of the
// evaluation: IMP, the indirect memory prefetcher of Yu et al. (MICRO '15),
// and the Oracle prefetcher, which knows all future memory accesses.
package prefetch

import (
	"slices"

	"dvr/internal/cpu"
	"dvr/internal/interp"
	"dvr/internal/isa"
	"dvr/internal/mem"
	"dvr/internal/runahead"
	"dvr/internal/trace"
)

// IMP is the Indirect Memory Prefetcher: it sits at the L1-D, detects
// A[B[i]]-style patterns by correlating the *values* returned by striding
// loads with the *addresses* of subsequent loads (addr = base + value *
// coeff), and prefetches the indirect targets for the index values the
// stride prefetcher is about to bring in. It handles one level of simple
// indirection but not the complex chains of graph and database workloads.
type IMP struct {
	hier *mem.Hierarchy
	fmem *interp.Memory
	rpt  *runahead.RPT

	// lastVal and pats are iterated on the training and trigger paths, and
	// iteration order is architecturally visible (it decides which candidate
	// patterns win table slots and in what order prefetches contend for
	// MSHRs). Both therefore keep deterministic insertion order — a slice
	// for the handful of striding PCs, a map plus an ordered entry list for
	// the pattern table — so identical runs produce identical results in
	// any process (the property the dvrd result cache is keyed on). The
	// list carries each pattern beside its key, so walking it (every
	// confident striding load does) never hashes.
	lastVal []impLastVal // striding-load PC -> last loaded value
	pats    map[impKey]*impPattern
	order   []impEntry // pats entries, insertion-ordered
	degree  int

	stats cpu.EngineStats
	tr    *trace.Recorder
}

// SetTracer implements cpu.Engine. Issue/late/useless events flow
// through the hierarchy's tracer; IMP itself reports pattern confirmations.
func (p *IMP) SetTracer(r *trace.Recorder) { p.tr = r }

// The four types below are IMP's live state; their JSON encoding is the
// checkpoint form.

type impLastVal struct {
	PC  int    `json:"pc"`
	Val uint64 `json:"val"`
}

type impKey struct {
	StridePC int   `json:"stride_pc"`
	IndirPC  int   `json:"indir_pc"`
	Coeff    int64 `json:"coeff"`
}

type impPattern struct {
	Base      uint64 `json:"base"`
	Conf      int    `json:"conf"`
	Confirmed bool   `json:"confirmed,omitempty"`
}

// impEntry encodes flat: the key's fields, then the pattern's.
type impEntry struct {
	impKey
	*impPattern
}

// impCoeffs are the candidate index-to-address scale factors IMP tests.
var impCoeffs = []int64{1, 2, 4, 8, 16, 32}

// NewIMP builds an IMP over the core's hierarchy and functional memory
// (which stands in for the values of prefetched index-array lines). It
// registers itself as the hierarchy's L1-D observer: IMP trains and
// triggers at access (execution) time, not commit time, so its prefetch
// distance tracks the out-of-order window.
func NewIMP(hier *mem.Hierarchy, fmem *interp.Memory) *IMP {
	p := &IMP{
		hier:   hier,
		fmem:   fmem,
		rpt:    runahead.NewRPT(32),
		pats:   make(map[impKey]*impPattern),
		degree: 8,
	}
	hier.Observe(p.observe)
	return p
}

// Name implements cpu.Engine.
func (p *IMP) Name() string { return "imp" }

// OnROBStall implements cpu.Engine.
func (p *IMP) OnROBStall(from, to uint64) {}

// CommitBlockedUntil implements cpu.Engine.
func (p *IMP) CommitBlockedUntil() uint64 { return 0 }

// Stats implements cpu.Engine.
func (p *IMP) Stats() cpu.EngineStats { return p.stats }

// OnCommit implements cpu.Engine; IMP works at the L1-D level instead
// (see observe).
func (p *IMP) OnCommit(di *interp.DynInst, cycle uint64) {}

// observe is the L1-D access hook: it trains the stride and indirect
// pattern tables and issues indirect prefetches when a striding load
// advances.
func (p *IMP) observe(pc int, addr uint64, cycle uint64) {
	e := p.rpt.Observe(pc, addr)
	if e.Confident() {
		p.setLastVal(pc, p.fmem.Load64(addr))
		p.trigger(pc, addr, e, cycle)
		return
	}

	// Candidate indirect load: correlate its address against recent
	// striding-load values.
	for _, lv := range p.lastVal {
		if lv.PC == pc {
			continue
		}
		for _, c := range impCoeffs {
			base := addr - lv.Val*uint64(c)
			k := impKey{StridePC: lv.PC, IndirPC: pc, Coeff: c}
			pat, ok := p.pats[k]
			if !ok {
				if len(p.pats) < 256 {
					pat = &impPattern{Base: base, Conf: 1}
					p.pats[k] = pat
					p.order = append(p.order, impEntry{k, pat})
				}
				continue
			}
			if pat.Base == base {
				pat.Conf++
				if pat.Conf >= 3 && !pat.Confirmed {
					pat.Confirmed = true
					coeff := k.Coeff
					if coeff < 0 {
						coeff = -coeff
					}
					p.tr.Emit(trace.EvPatternConfirm, cycle, 0, pc, uint64(coeff), 0)
				}
			} else if !pat.Confirmed {
				pat.Base = base
				pat.Conf = 1
			} else {
				pat.Conf--
				if pat.Conf <= 0 {
					delete(p.pats, k)
					p.order = slices.DeleteFunc(p.order, func(e impEntry) bool { return e.impPattern == pat })
				}
			}
		}
	}
}

// setLastVal records the latest value loaded by a striding PC, keeping
// first-observation order (the table is a handful of entries — one per
// striding load PC in the program — so a linear scan beats map hashing).
func (p *IMP) setLastVal(pc int, val uint64) {
	for i := range p.lastVal {
		if p.lastVal[i].PC == pc {
			p.lastVal[i].Val = val
			return
		}
	}
	p.lastVal = append(p.lastVal, impLastVal{PC: pc, Val: val})
}

// trigger fires the confirmed patterns anchored at a striding load: the
// index values at addr+stride .. addr+degree*stride (being brought in by
// the stride prefetcher) are translated and their targets prefetched.
func (p *IMP) trigger(pc int, addr uint64, e *runahead.RPTEntry, cycle uint64) {
	for _, en := range p.order {
		k, pat := en.impKey, en.impPattern
		if !pat.Confirmed || k.StridePC != pc {
			continue
		}
		for d := 1; d <= p.degree; d++ {
			idxAddr := uint64(int64(addr) + int64(d)*e.Stride)
			idx := p.fmem.Load64(idxAddr)
			target := pat.Base + idx*uint64(k.Coeff)
			res := p.hier.Prefetch(target, cycle, mem.SrcIMP)
			if !res.Rejected {
				p.stats.Prefetches++
			}
		}
	}
}

var _ cpu.Engine = (*IMP)(nil)
var _ = isa.Nop

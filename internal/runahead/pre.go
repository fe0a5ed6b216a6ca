package runahead

import (
	"math/bits"

	"dvr/internal/cpu"
	"dvr/internal/interp"
	"dvr/internal/mem"
	"dvr/internal/trace"
)

// PRE is Precise Runahead Execution (Naithani et al., HPCA '20): on a
// full-ROB stall it pre-executes the chains of future instructions that
// lead to loads, using recycled back-end resources, without flushing the
// pipeline on exit. It is limited by the front-end width during the
// runahead interval and cannot produce addresses that depend on data still
// in flight, which is why it cannot prefetch past the first level of
// indirection (§2.2).
type PRE struct {
	fe    *interp.Interp
	hier  *mem.Hierarchy
	srcs  []uint16 // source-register set of each static instruction, by PC
	width int
	// maxUops caps one episode (register/issue-queue recycling limits).
	maxUops int

	stats cpu.EngineStats
	tr    *trace.Recorder
}

// SetTracer implements cpu.Engine.
func (p *PRE) SetTracer(r *trace.Recorder) { p.tr = r }

// NewPRE builds a PRE engine over the core's frontend and hierarchy.
func NewPRE(fe *interp.Interp, hier *mem.Hierarchy, width int) *PRE {
	return &PRE{fe: fe, hier: hier, srcs: fe.Prog.SrcMasks(), width: width, maxUops: 768}
}

// Name implements cpu.Engine.
func (p *PRE) Name() string { return "pre" }

// OnCommit implements cpu.Engine.
func (p *PRE) OnCommit(di *interp.DynInst, cycle uint64) {}

// CommitBlockedUntil implements cpu.Engine: PRE never stalls commit.
func (p *PRE) CommitBlockedUntil() uint64 { return 0 }

// Stats implements cpu.Engine.
func (p *PRE) Stats() cpu.EngineStats { return p.stats }

// OnROBStall implements cpu.Engine: the runahead episode. The runahead
// interval is the stall window [from, to): instructions are pre-executed at
// the front-end rate; loads whose addresses are ready inside the window
// issue prefetches; instructions depending on data that cannot return
// before the window closes are skipped.
func (p *PRE) OnROBStall(from, to uint64) {
	if to <= from {
		return
	}
	p.stats.Episodes++
	// PRE occupies the recycled backend for exactly the stall window.
	p.stats.BusyCycles += to - from
	p.tr.Emit(trace.EvRunaheadSpawn, from, to, -1, 0, trace.ReasonStall)
	p.tr.Emit(trace.EvRunaheadEnd, to, 0, -1, 0, trace.ReasonStall)
	it := p.fe.Clone()

	budget := int(to-from) * p.width
	if budget > p.maxUops {
		budget = p.maxUops
	}

	var ready [16]uint64
	for i := range ready {
		ready[i] = from
	}
	fetch := from
	var di interp.DynInst
	// Front-end supply: width instructions per cycle; slot counts the
	// instructions fetched in the current cycle.
	slot := 0
	for i := 0; i < budget; i++ {
		if !it.StepInto(&di) {
			break
		}
		if slot == p.width {
			fetch++
			slot = 0
		}
		slot++
		if fetch >= to {
			break
		}
		t := fetch
		for m := p.srcs[di.PC]; m != 0; m &= m - 1 {
			if r := ready[bits.TrailingZeros16(m)]; r > t {
				t = r
			}
		}
		in := di.Inst
		switch {
		case t >= to:
			// Operands cannot be ready within the runahead interval; the
			// chain below this point is dropped.
			if in.Op.WritesDst() {
				ready[in.Dst] = to
			}
		case in.Op.IsLoad():
			res := p.hier.RunaheadAccess(di.Addr, t, mem.SrcRunahead)
			if res.Level != mem.LvlL1 || res.Merged {
				p.stats.Prefetches++
			}
			ready[in.Dst] = res.Done
		case in.Op.IsStore():
			// Stores are dropped in runahead mode.
		default:
			if in.Op.WritesDst() {
				ready[in.Dst] = t + 1
			}
		}
	}
}

var _ cpu.Engine = (*PRE)(nil)

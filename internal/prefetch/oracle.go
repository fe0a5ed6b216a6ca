package prefetch

import (
	"dvr/internal/cpu"
	"dvr/internal/interp"
	"dvr/internal/mem"
	"dvr/internal/trace"
)

// Oracle is the hypothetical technique of the evaluation: it knows all
// memory accesses in advance (it runs the real future instruction stream)
// and prefetches each load a fixed instruction distance ahead of the main
// thread, subject only to MSHR and DRAM-bandwidth limits.
type Oracle struct {
	ahead     *interp.Interp
	hier      *mem.Hierarchy
	lookahead uint64 // instructions of lookahead
	committed uint64
	queue     []uint64
	stats     cpu.EngineStats
	tr        *trace.Recorder
}

// SetTracer implements cpu.Engine. The Oracle's activity is visible via
// the hierarchy's prefetch-issue events; nothing extra to emit here.
func (o *Oracle) SetTracer(r *trace.Recorder) { o.tr = r }

// NewOracle clones the frontend at its current state and keeps the clone
// `lookahead` instructions ahead of the main thread's commit point.
func NewOracle(fe *interp.Interp, hier *mem.Hierarchy, lookahead uint64) *Oracle {
	ahead := fe.Clone()
	// The frontend may already be fast-forwarded; count commits from its
	// current position.
	return &Oracle{ahead: ahead, hier: hier, lookahead: lookahead, committed: ahead.Seq}
}

// Name implements cpu.Engine.
func (o *Oracle) Name() string { return "oracle" }

// OnROBStall implements cpu.Engine.
func (o *Oracle) OnROBStall(from, to uint64) {}

// CommitBlockedUntil implements cpu.Engine.
func (o *Oracle) CommitBlockedUntil() uint64 { return 0 }

// Stats implements cpu.Engine.
func (o *Oracle) Stats() cpu.EngineStats { return o.stats }

// OnCommit implements cpu.Engine: advance the future view and drain the
// prefetch queue within resource limits.
func (o *Oracle) OnCommit(di *interp.DynInst, cycle uint64) {
	o.committed++
	var adi interp.DynInst
	for o.ahead.Seq < o.committed+o.lookahead {
		if !o.ahead.StepInto(&adi) {
			break
		}
		if adi.Inst.Op.IsMem() {
			// "All memory accesses in advance": loads and stores alike
			// (write-allocate makes store misses as costly as load misses).
			if len(o.queue) < 4096 {
				o.queue = append(o.queue, adi.Addr)
			}
		}
	}
	o.issue(cycle)
}

// issue sends the queued prefetches at cycle now. The Oracle is the
// hypothetical upper bound: it pays DRAM bandwidth but is not bounded by
// the MSHR file.
func (o *Oracle) issue(now uint64) {
	for _, addr := range o.queue {
		if o.hier.Resident(addr) {
			continue
		}
		res := o.hier.RunaheadAccess(addr, now, mem.SrcOracle)
		if res.Level != mem.LvlL1 {
			o.stats.Prefetches++
		}
	}
	o.queue = o.queue[:0]
}

var _ cpu.Engine = (*Oracle)(nil)

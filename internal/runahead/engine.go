package runahead

import (
	"dvr/internal/cpu"
	"dvr/internal/interp"
	"dvr/internal/isa"
	"dvr/internal/mem"
	"dvr/internal/trace"
)

// Options selects which of the paper's mechanisms the vector-runahead
// engine uses; the four configurations of Figure 8 (VR, +Offload,
// +Discovery, full DVR) are predefined below.
type Options struct {
	Name string

	// TriggerOnStall is VR: trigger on a full-ROB stall and hold commit
	// until the chain completes; else the decoupled subthread, triggered on
	// stride detection, runs alongside the main pipeline.
	TriggerOnStall bool
	Discovery      bool // Discovery Mode: innermost-stride + chain + loop bound
	Nested         bool // Nested Vector Runahead for short inner loops

	Lanes           int    // maximum vectorization degree (128)
	NestedThreshold int    // enter NDM when fewer upcoming iterations than this (64)
	MinStallCycles  uint64 // minimum ROB-stall length that triggers VR
	// Vec parameterizes the subthread's runs; Vec.Reconverge selects
	// GPU-style divergence/reconvergence (else VR's first-lane).
	Vec VecConfig
}

// VROptions configures Vector Runahead (Naithani et al., ISCA '21): full-ROB
// trigger, occupies the pipeline until the chain completes (delayed
// termination), always vectorizes by the full degree, first-lane control
// flow.
func VROptions() Options {
	v := DefaultVecConfig()
	v.Reconverge = false
	return Options{
		Name: "vr", TriggerOnStall: true,
		Lanes: DefaultLanes, NestedThreshold: 64, MinStallCycles: 16, Vec: v,
	}
}

// OffloadOptions is Figure 8's second configuration: VR's vectorization
// offloaded to a decoupled subthread triggered whenever a stride is
// detected.
func OffloadOptions() Options {
	o := VROptions()
	o.Name = "dvr-offload"
	o.TriggerOnStall = false
	return o
}

// DiscoveryOptions adds Discovery Mode to the offloaded subthread
// (Figure 8, third configuration).
func DiscoveryOptions() Options {
	o := OffloadOptions()
	o.Name = "dvr-discovery"
	o.Discovery = true
	return o
}

// DVROptions is the complete technique: decoupled subthread, Discovery
// Mode, Nested Vector Runahead and reconvergence.
func DVROptions() Options {
	o := DiscoveryOptions()
	o.Name = "dvr"
	o.Nested = true
	o.Vec.Reconverge = true
	return o
}

// Vector is the vector-runahead engine; it implements cpu.Engine.
type Vector struct {
	opt  Options
	prog *isa.Program
	srcs []uint16 // prog.SrcMasks()
	fmem *interp.Memory
	hier *mem.Hierarchy
	rpt  *RPT

	regs [isa.NumRegs]uint64 // committed architectural register state

	disc      *discovery
	pending   *discoveryResult // discovered; waiting for the stride PC to commit
	busyUntil uint64           // subthread occupied through this cycle
	holdUntil uint64           // VR delayed termination: commit blocked until

	stats    cpu.EngineStats
	lanesSum uint64

	// tr receives episode/discovery/vector-batch events; nil when tracing
	// is off (every emit is nil-safe).
	tr *trace.Recorder
}

// SetTracer implements cpu.Engine.
func (v *Vector) SetTracer(r *trace.Recorder) { v.tr = r }

// noteEpisode accounts one finished episode: subthread occupancy for the
// stats and a spawn/terminate event pair for the tracer.
func (v *Vector) noteEpisode(pc int, start, end uint64, lanes int, reason uint64) {
	if end > start {
		v.stats.BusyCycles += end - start
	}
	v.tr.Emit(trace.EvRunaheadSpawn, start, end, pc, uint64(lanes), reason)
	v.tr.Emit(trace.EvRunaheadEnd, end, 0, pc, uint64(lanes), reason)
}

// NewVector builds a vector-runahead engine over the core's frontend
// interpreter (for the program, functional memory and current architectural
// register state) and its memory hierarchy.
func NewVector(opt Options, fe *interp.Interp, hier *mem.Hierarchy) *Vector {
	return &Vector{
		opt:  opt,
		prog: fe.Prog,
		srcs: fe.Prog.SrcMasks(),
		fmem: fe.Mem,
		hier: hier,
		rpt:  NewRPT(32),
		regs: fe.St.Regs,
	}
}

// NewVR returns the Vector Runahead baseline.
func NewVR(fe *interp.Interp, hier *mem.Hierarchy) *Vector {
	return NewVector(VROptions(), fe, hier)
}

// NewDVR returns the full Decoupled Vector Runahead engine.
func NewDVR(fe *interp.Interp, hier *mem.Hierarchy) *Vector {
	return NewVector(DVROptions(), fe, hier)
}

// Name implements cpu.Engine.
func (v *Vector) Name() string { return v.opt.Name }

// Stats implements cpu.Engine.
func (v *Vector) Stats() cpu.EngineStats {
	s := v.stats
	if s.Episodes > 0 {
		s.LanesVectorize = float64(v.lanesSum) / float64(s.Episodes)
	}
	return s
}

// CommitBlockedUntil implements cpu.Engine (VR's delayed termination).
func (v *Vector) CommitBlockedUntil() uint64 { return v.holdUntil }

// OnROBStall implements cpu.Engine: the Vector Runahead trigger.
func (v *Vector) OnROBStall(from, to uint64) {
	if !v.opt.TriggerOnStall {
		return
	}
	if to-from < v.opt.MinStallCycles || from < v.busyUntil {
		return
	}
	e := v.rpt.LastConfident()
	if e == nil {
		return
	}
	res := discoveryResult{StridePC: e.PC, Stride: e.Stride, FLRPC: -1, Lanes: v.opt.Lanes, BackBranch: -1}
	end := v.spawn(res, e.PrevAddr, from, trace.ReasonStall)
	v.busyUntil = end
	// Delayed termination: the core stays in runahead mode until the
	// vectorized chain completes, stalling commit past the stall window.
	if end > to {
		v.holdUntil = end
	}
}

// OnCommit implements cpu.Engine: it tracks the committed register state,
// trains the stride detector and drives Discovery Mode and spawning.
func (v *Vector) OnCommit(di *interp.DynInst, cycle uint64) {
	in := di.Inst
	if in.Op.WritesDst() {
		v.regs[in.Dst] = di.Val
	}

	var rptEntry *RPTEntry
	if in.Op.IsLoad() {
		rptEntry = v.rpt.Observe(di.PC, di.Addr)
	}

	if v.opt.TriggerOnStall {
		if cycle >= v.holdUntil {
			v.holdUntil = 0
		}
		return
	}

	// Discovery Mode in progress: feed it the committed stream.
	if v.disc != nil {
		res, done := v.disc.observe(di, v.rpt, v.regs)
		if done {
			v.disc = nil
			v.stats.DiscoveryModes++
			var spawnable uint64
			if res.hasChain() && res.Lanes > 0 {
				v.pending = &res
				spawnable = 1
			}
			v.tr.Emit(trace.EvDiscoveryEnd, cycle, 0, res.StridePC, uint64(res.Lanes), spawnable)
		}
		return
	}

	// A completed discovery waits for the main thread to reach the striding
	// load again, then spawns the subthread (§4.2).
	if v.pending != nil {
		if di.PC == v.pending.StridePC && in.Op.IsLoad() {
			res := *v.pending
			v.pending = nil
			v.busyUntil = v.spawn(res, di.Addr, cycle, trace.ReasonStride)
		}
		return
	}

	// Idle: look for a trigger.
	if cycle < v.busyUntil || rptEntry == nil || !rptEntry.Confident() {
		return
	}
	if v.opt.Discovery {
		v.disc = newDiscovery(di.PC, rptEntry.Stride, v.regs)
		v.disc.seedTaint(in.Dst)
		v.disc.Started = true
		v.tr.Emit(trace.EvDiscoveryStart, cycle, 0, di.PC, 0, 0)
		return
	}
	// No Discovery Mode (offload variant): vectorize immediately from this
	// striding load by the full degree.
	res := discoveryResult{StridePC: di.PC, Stride: rptEntry.Stride, FLRPC: -1, Lanes: v.opt.Lanes, BackBranch: -1}
	v.busyUntil = v.spawn(res, di.Addr, cycle, trace.ReasonStride)
}

// spawn launches one vector-runahead episode from the striding load at
// baseAddr and returns the cycle at which the subthread finishes. reason
// records what triggered it (trace.ReasonStall / trace.ReasonStride).
func (v *Vector) spawn(res discoveryResult, baseAddr uint64, cycle uint64, reason uint64) uint64 {
	lanes := res.Lanes
	if lanes > v.opt.Lanes {
		lanes = v.opt.Lanes
	}
	if lanes <= 0 {
		return cycle
	}
	v.stats.Episodes++

	if v.opt.Nested && res.Lanes < v.opt.NestedThreshold && res.BackBranch >= 0 {
		if end, ok := v.nestedSpawn(res, cycle); ok {
			v.noteEpisode(res.StridePC, cycle, end, lanes, trace.ReasonNested)
			return end
		}
	}

	run := newVecRun(v.prog, v.srcs, v.fmem, v.hier, v.opt.Vec, newVecState(v.regs, lanes), cycle)
	run.tr = v.tr
	run.rpt = v.rpt
	run.laneOffset = 1
	override := new(laneVec)
	for k := 0; k < lanes; k++ {
		override[k] = uint64(int64(baseAddr) + int64(k+1)*res.Stride)
	}
	flr := res.FLRPC
	if res.Divergent {
		// Footnote 1: branches between the FLR and the loop close; ignore
		// the FLR and let lanes run to the next stride iteration.
		flr = -1
	}
	run.exec(execOpts{
		startPC:      res.StridePC,
		addrOverride: override,
		stridePC:     res.StridePC,
		flrPC:        flr,
		stopBefore:   -1,
	})
	v.collect(run, lanes)
	v.noteEpisode(res.StridePC, cycle, run.cursor, lanes, reason)
	return run.cursor
}

// nestedSpawn is Nested Vector Runahead (§4.3): the loop-bound detector
// found too few upcoming inner iterations, so the subthread alters the
// backward branch, skips the inner loop, vectorizes the outer striding
// load by 16, follows the dependent chain to the inner striding load, and
// expands into up to 128 inner-loop lanes drawn from many invocations.
func (v *Vector) nestedSpawn(res discoveryResult, cycle uint64) (uint64, bool) {
	outerLanes := v.opt.Lanes / VectorWidth // 16 at the paper's 128-lane degree
	if outerLanes < 1 {
		outerLanes = 1
	}

	innerPC := res.StridePC // the ILR
	innerEntry := v.rpt.Lookup(innerPC)
	if innerEntry == nil || !innerEntry.Confident() {
		return 0, false
	}
	innerStride := innerEntry.Stride

	// Phase A: Nested Discovery Mode. Scalar execution from the altered
	// branch (not-taken path), skipping the remaining inner iterations.
	cfg := v.opt.Vec
	cfg.Reconverge = false
	run := newVecRun(v.prog, v.srcs, v.fmem, v.hier, cfg, newVecState(v.regs, outerLanes), cycle)
	run.tr = v.tr
	run.rpt = v.rpt
	run.laneOffset = 0
	outerPC := run.scalarSkip(res.BackBranch+1, v.rpt, innerPC)
	if outerPC < 0 {
		// No outer striding load within the budget: fall back to the
		// loop-bound degree (§4.3.1).
		v.collect(run, 0)
		return 0, false
	}
	outerEntry := v.rpt.Lookup(outerPC)

	// Phase B: vectorize the outer striding load by 16 and follow its
	// dependants to the first iteration of the inner striding load.
	outerIn := v.prog.Code[outerPC]
	outerBase := run.st.scalar[outerIn.Src1] + uint64(outerIn.Imm)
	if outerIn.Op == isa.LoadIdx {
		outerBase += run.st.scalar[outerIn.Src2] * 8
	}
	override := new(laneVec)
	for k := 0; k < outerLanes; k++ {
		override[k] = uint64(int64(outerBase) + int64(k)*outerEntry.Stride)
	}
	out := run.exec(execOpts{
		startPC:      outerPC,
		addrOverride: override,
		stridePC:     -1,
		flrPC:        -1,
		stopBefore:   innerPC,
	})
	if !out.reachedStop {
		v.collect(run, outerLanes)
		return run.cursor, true // prefetches issued; treat as a (short) episode
	}
	v.stats.NestedModes++
	v.tr.Emit(trace.EvNestedSpawn, run.cursor, 0, innerPC, uint64(outerLanes), 0)

	// Phase C: at the inner striding load, read the vectorized loop-bound
	// registers, compute per-invocation trip counts, and expand into up to
	// 128 lanes across invocations.
	innerIn := v.prog.Code[innerPC]
	baseOf := func(k int) uint64 {
		a := run.st.get(innerIn.Src1, k) + uint64(innerIn.Imm)
		if innerIn.Op == isa.LoadIdx {
			a += run.st.get(innerIn.Src2, k) * 8
		}
		return a
	}
	tripOf := func(k int) int {
		if !res.BoundKnown || res.Incr == 0 {
			return res.Lanes
		}
		var bound int64
		if res.BoundIsImm {
			bound = res.BoundImm
		} else {
			bound = int64(run.st.get(res.BoundReg, k))
		}
		iv := int64(run.st.get(res.IVReg, k))
		t := (bound - iv + res.Incr - 1) / res.Incr
		if t < 0 {
			return 0
		}
		if t > MaxLanes {
			return MaxLanes
		}
		return int(t)
	}

	type expanded struct {
		outer int
		addr  uint64
		iv    uint64
	}
	maxExpand := v.opt.Lanes
	var lanes []expanded
	for k := 0; k < outerLanes && len(lanes) < maxExpand; k++ {
		if !run.st.active.Get(k) {
			continue
		}
		base := baseOf(k)
		iv0 := run.st.get(res.IVReg, k)
		trips := tripOf(k)
		for j := 0; j < trips && len(lanes) < maxExpand; j++ {
			lanes = append(lanes, expanded{
				outer: k,
				addr:  uint64(int64(base) + int64(j)*innerStride),
				iv:    uint64(int64(iv0) + int64(j)*res.Incr),
			})
		}
	}
	if len(lanes) == 0 {
		v.collect(run, outerLanes)
		return run.cursor, true
	}

	// Build the expanded register state: vectorized registers replicate
	// their outer lane's value; untainted registers stay scalar.
	st := newVecState(run.st.scalar, len(lanes))
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if !run.st.isVec(r) {
			continue
		}
		lv := st.vectorize(r)
		for i, e := range lanes {
			lv[i] = run.st.vec[r][e.outer]
		}
	}
	if lv := st.vectorize(res.IVReg); true {
		for i, e := range lanes {
			lv[i] = e.iv
		}
	}
	override128 := new(laneVec)
	for i, e := range lanes {
		override128[i] = e.addr
	}

	inner := newVecRun(v.prog, v.srcs, v.fmem, v.hier, v.opt.Vec, st, run.cursor)
	inner.tr = v.tr
	inner.steps = run.steps
	flr := res.FLRPC
	if res.Divergent {
		flr = -1
	}
	inner.exec(execOpts{
		startPC:      innerPC,
		addrOverride: override128,
		stridePC:     innerPC,
		flrPC:        flr,
		stopBefore:   -1,
	})
	v.collect(run, 0)
	v.collect(inner, len(lanes))
	return inner.cursor, true
}

// collect folds one vecRun's counters into the engine statistics.
func (v *Vector) collect(run *vecRun, lanes int) {
	v.stats.Prefetches += run.prefetches
	v.stats.VectorUops += run.uops
	if run.timedOut {
		v.stats.Timeouts++
	}
	v.lanesSum += uint64(lanes)
}

var _ cpu.Engine = (*Vector)(nil)

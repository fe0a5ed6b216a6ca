package cpu

import (
	"context"
	"encoding/json"
	"math"
	"math/bits"
	"time"

	"dvr/internal/bpred"
	"dvr/internal/interp"
	"dvr/internal/isa"
	"dvr/internal/mem"
	"dvr/internal/trace"
)

// EngineStats summarizes what an attached runahead engine or prefetcher did.
type EngineStats struct {
	Episodes       uint64 // runahead episodes / subthread spawns
	Prefetches     uint64 // prefetch requests issued to the hierarchy
	VectorUops     uint64 // vector instruction copies issued (VR/DVR)
	DiscoveryModes uint64
	NestedModes    uint64
	Timeouts       uint64
	BusyCycles     uint64  // cycles the runahead timeline was occupied
	LanesVectorize float64 // average lanes per vectorization episode
}

// Engine is a runahead technique or prefetcher attached to the core. All
// methods are called with monotonically nondecreasing cycles.
type Engine interface {
	// Name identifies the technique in reports.
	Name() string
	// OnCommit observes every committed instruction in program order. di
	// is the core's own record, valid only for the duration of the call.
	OnCommit(di *interp.DynInst, cycle uint64)
	// OnROBStall reports that dispatch stalled on a full ROB during
	// [from, to). Classic runahead techniques trigger here.
	OnROBStall(from, to uint64)
	// CommitBlockedUntil returns the cycle before which the main thread may
	// not commit (VR's delayed termination), or 0 when commit is free.
	CommitBlockedUntil() uint64
	// Stats returns the engine's counters.
	Stats() EngineStats

	// SnapshotState serializes the engine's state. The core calls it only
	// at committed-instruction boundaries, where every engine is between
	// episodes (episodes run synchronously inside OnCommit/OnROBStall), so
	// the state is compact.
	SnapshotState() (json.RawMessage, error)
	// RestoreState loads what SnapshotState produced into an engine freshly
	// built over the already-restored frontend and hierarchy.
	RestoreState(json.RawMessage) error
	// SetTracer attaches the run's trace recorder (nil detaches it).
	SetTracer(*trace.Recorder)
}

// ResultSchemaVersion identifies the JSON encoding of Result. Bump it when
// a field is added, removed or changes meaning, so cached and archived
// results are never confused across encodings.
//
// v2: EngineStats.BusyCycles plus the derived prefetch-timeliness fields
// (PrefLateTotal, PrefUnusedEvictTotal, AvgDemandMissCycles,
// CommitHoldFrac) surfaced at the top level.
//
// v3: the optional Sampled provenance block (internal/sampling): a result
// projected from phase-representative windows declares how it was
// produced instead of masquerading as an exact run.
const ResultSchemaVersion = 3

// Result is the outcome of one simulation run.
type Result struct {
	// SchemaVersion stamps the JSON encoding (ResultSchemaVersion). Run
	// sets it; decoders can reject versions they don't understand.
	SchemaVersion int `json:"schema_version"`

	Name      string
	Technique string

	Instructions uint64
	Cycles       uint64

	// HostNS is the host wall-clock time the simulation took, for the
	// simulated-MIPS throughput metric. It is the only nondeterministic
	// field of a Result; comparisons between runs should zero it first.
	HostNS int64 `json:",omitempty"`

	Loads    uint64
	Stores   uint64
	Branches uint64

	ROBStallCycles   uint64 // dispatch blocked on a full ROB
	CommitHoldCycles uint64 // commit blocked by delayed termination

	BranchLookups    uint64
	BranchMispredict uint64

	// Derived accuracy/timeliness totals, surfaced so figure code and API
	// consumers stop re-deriving them from the per-source arrays in Mem.
	PrefLateTotal        uint64  `json:"pref_late_total"`         // demand caught the prefetch in flight
	PrefUnusedEvictTotal uint64  `json:"pref_unused_evict_total"` // prefetched lines evicted unused
	AvgDemandMissCycles  float64 `json:"avg_demand_miss_cycles"`  // mean demand-miss latency
	CommitHoldFrac       float64 `json:"commit_hold_frac"`        // fraction of cycles commit was held

	Mem    mem.Stats
	Engine EngineStats

	// Sampled, when non-nil, marks the result as a sampled-simulation
	// projection (phase-weighted extrapolation from representative
	// windows, internal/sampling) rather than an exact run, and carries
	// the sampling provenance: window geometry, phase count, warmup, and
	// the error model's confidence half-width. Exact runs leave it nil,
	// so their JSON encoding is unchanged.
	Sampled *SampledProvenance `json:"sampled,omitempty"`
}

// Canonical returns the deterministic form of the result: HostNS — the
// documented nondeterministic field — zeroed and SchemaVersion stamped.
// Cache keys, cached values and cross-run comparisons all use the
// canonical form; two runs of the same job are byte-identical after
// Canonical (and only after it).
func (r Result) Canonical() Result {
	r.HostNS = 0
	r.SchemaVersion = ResultSchemaVersion
	return r
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// SimMIPS returns the simulation throughput in millions of simulated
// instructions per host second (0 when no wall time was recorded).
func (r Result) SimMIPS() float64 {
	if r.HostNS <= 0 {
		return 0
	}
	return float64(r.Instructions) * 1e3 / float64(r.HostNS)
}

// MLP returns the average number of MSHRs in use per cycle (Figure 9).
func (r Result) MLP() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Mem.MSHRBusyCycles) / float64(r.Cycles)
}

// LLCMPKI returns demand LLC misses per kilo-instruction (Table 2).
func (r Result) LLCMPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Mem.DemandHits[mem.LvlMem]) / float64(r.Instructions) * 1000
}

// ROBStallFrac returns the fraction of cycles dispatch was blocked on a
// full ROB (Figure 2, right axis).
func (r Result) ROBStallFrac() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.ROBStallCycles) / float64(r.Cycles)
}

// Sub returns r - o for every counter: the activity between an earlier
// stats view o of the same run and r. The core's own counters are listed
// here; the hierarchy's and the engine's come from mem.Stats.Sub and
// EngineStats.Sub. Identity fields and the derived totals are left zero
// (DeriveTotals recomputes the latter from whatever counters a caller
// ends up with).
func (r Result) Sub(o Result) Result {
	return Result{
		Instructions:     r.Instructions - o.Instructions,
		Cycles:           r.Cycles - o.Cycles,
		Loads:            r.Loads - o.Loads,
		Stores:           r.Stores - o.Stores,
		Branches:         r.Branches - o.Branches,
		ROBStallCycles:   r.ROBStallCycles - o.ROBStallCycles,
		CommitHoldCycles: r.CommitHoldCycles - o.CommitHoldCycles,
		BranchLookups:    r.BranchLookups - o.BranchLookups,
		BranchMispredict: r.BranchMispredict - o.BranchMispredict,
		Mem:              r.Mem.Sub(o.Mem),
		Engine:           r.Engine.Sub(o.Engine),
	}
}

// DeriveTotals sets the derived accuracy and timeliness fields from the
// counters. The run end applies it to exact counters, the sampled
// extrapolator to projected ones.
func (r *Result) DeriveTotals() {
	r.PrefLateTotal = r.Mem.TotalPrefLate()
	r.PrefUnusedEvictTotal = r.Mem.TotalPrefUnusedEvict()
	r.AvgDemandMissCycles, r.CommitHoldFrac = 0, 0
	if m := r.Mem.DemandMisses(); m > 0 {
		r.AvgDemandMissCycles = float64(r.Mem.DemandMissCycles) / float64(m)
	}
	if r.Cycles > 0 {
		r.CommitHoldFrac = float64(r.CommitHoldCycles) / float64(r.Cycles)
	}
}

// TraceCounters projects r onto the interval sampler's flat counter set
// (trace imports no simulator package, so it cannot read a Result). The
// core passes each interval's delta through it.
func (r Result) TraceCounters() trace.Counters {
	m := &r.Mem
	return trace.Counters{
		ROBStallCycles:     r.ROBStallCycles,
		CommitHoldCycles:   r.CommitHoldCycles,
		DemandAccesses:     m.Accesses[mem.SrcDemand],
		DemandL1Hits:       m.DemandHits[mem.LvlL1],
		DemandDRAM:         m.DemandHits[mem.LvlMem],
		DemandMerged:       m.DemandMerged,
		DemandMissCycles:   m.DemandMissCycles,
		PrefIssued:         m.TotalPrefIssued(),
		PrefUseful:         m.TotalPrefUseful(),
		PrefUsefulL1:       m.PrefUsefulAt[mem.LvlL1],
		PrefLate:           m.TotalPrefLate(),
		PrefUnusedEvict:    m.TotalPrefUnusedEvict(),
		MSHRBusyCycles:     m.MSHRBusyCycles,
		DRAMAccesses:       m.TotalDRAM(),
		RunaheadEpisodes:   r.Engine.Episodes,
		RunaheadPrefetches: r.Engine.Prefetches,
		RunaheadBusyCycles: r.Engine.BusyCycles,
		VectorUops:         r.Engine.VectorUops,
	}
}

// MispredictRate returns branch mispredictions per executed branch.
func (r Result) MispredictRate() float64 {
	if r.BranchLookups == 0 {
		return 0
	}
	return float64(r.BranchMispredict) / float64(r.BranchLookups)
}

// Core is the out-of-order timing model. Construct with NewCore, attach an
// optional Engine, then call Run.
type Core struct {
	cfg    Config
	hier   *mem.Hierarchy
	bp     *bpred.Predictor
	engine Engine
	fe     *interp.Interp

	// traceFn, when set, receives per-instruction pipeline timing for the
	// first traceN instructions (debugging aid).
	traceFn func(seq uint64, pc int, disp, ready, issue, done, commit uint64)
	traceN  uint64

	// trace, when set by Instrument, receives structured events and
	// interval samples. traceEvery caches the sampling cadence so the
	// commit loop's disabled path is a single integer compare.
	trace      *trace.Recorder
	traceEvery uint64
}

// Instrument attaches a trace recorder to the core, its memory hierarchy,
// and the attached engine. Call after Attach and before Run; a nil
// recorder detaches everything.
func (c *Core) Instrument(r *trace.Recorder) {
	c.trace = r
	c.traceEvery = r.IntervalEvery()
	c.hier.SetTracer(r)
	if c.engine != nil {
		c.engine.SetTracer(r)
	}
}

// NewCore builds a core over the given frontend with a fresh memory
// hierarchy and branch predictor.
func NewCore(cfg Config, fe *interp.Interp) *Core {
	return &Core{
		cfg:  cfg,
		hier: mem.NewHierarchy(cfg.Mem),
		bp:   bpred.New(cfg.Bpred),
		fe:   fe,
	}
}

// NewCoreWith builds a core around a caller-provided hierarchy and
// predictor. The sampled-simulation replayer (internal/sampling) builds
// one hierarchy per Replay and carries it across that plan's windows —
// trace-driven warming, then mem.Hierarchy.BeginSegment before each timed
// segment — because constructing the Table 1 L3 dominates the cost of a
// short replay; behavior is otherwise identical to NewCore.
func NewCoreWith(cfg Config, fe *interp.Interp, h *mem.Hierarchy, bp *bpred.Predictor) *Core {
	return &Core{cfg: cfg, hier: h, bp: bp, fe: fe}
}

// Hierarchy exposes the memory hierarchy (engines attach to it).
func (c *Core) Hierarchy() *mem.Hierarchy { return c.hier }

// Attach connects a runahead engine or prefetcher. Call before Run.
func (c *Core) Attach(e Engine) { c.engine = e }

// Trace registers fn to receive per-instruction pipeline timing (dispatch,
// operand-ready, issue, complete and commit cycles) for the first n
// instructions of the run. A debugging and teaching aid.
func (c *Core) Trace(n uint64, fn func(seq uint64, pc int, disp, ready, issue, done, commit uint64)) {
	c.traceN = n
	c.traceFn = fn
}

// Run simulates up to maxInsts dynamic instructions (or until the program
// halts) and returns the collected statistics.
func (c *Core) Run(maxInsts uint64) Result {
	res, _ := c.RunContext(context.Background(), maxInsts)
	return res
}

// cancelCheckInterval is how many instructions the simulation loop commits
// between context polls: rare enough that the poll is invisible in the hot
// path, frequent enough (tens of microseconds of host time) that deadline
// cancellation is prompt. This is the documented cancellation-latency
// bound: after ctx is cancelled, the loop commits at most
// cancelCheckInterval further instructions before returning (verified by
// TestCancellationLatency).
const cancelCheckInterval = 1024

// RunContext is Run with cooperative cancellation: the cycle loop polls
// ctx every cancelCheckInterval instructions and stops early when the
// context is done. On cancellation it returns the statistics accumulated
// so far along with ctx.Err(); a completed run returns a nil error. This
// is what lets the dvrd service enforce per-request deadlines on in-flight
// simulations instead of leaking a worker per abandoned request.
func (c *Core) RunContext(ctx context.Context, maxInsts uint64) (Result, error) {
	return c.RunWithOptions(ctx, maxInsts, RunOptions{})
}

// RunOptions extends RunContext with durability features. The zero value
// is a plain run.
type RunOptions struct {
	// Resume, when non-nil, restores the full simulation state from a
	// snapshot before the first instruction. The core must be freshly
	// constructed with the same Config, the same workload frontend (not
	// yet stepped) and the same engine technique the snapshot was taken
	// under; a resumed run is bit-identical to one that was never
	// interrupted.
	Resume *Snapshot

	// CheckpointEvery, when nonzero, captures a Snapshot at every
	// committed-instruction boundary that is a multiple of it and passes
	// the snapshot to CheckpointFn. An error from CheckpointFn aborts the
	// run and is returned.
	CheckpointEvery uint64
	CheckpointFn    func(*Snapshot) error

	// WatchdogBudget, when nonzero, is the retirement watchdog: if the gap
	// between two consecutive commit cycles exceeds it, the run aborts
	// with a *LivelockError carrying a ForensicsDump of the stuck
	// pipeline.
	WatchdogBudget uint64

	// LivelockAfter, when nonzero, is a scripted fault: from this many
	// committed instructions on, commit is held at an unreachable cycle,
	// so the watchdog trips as it would on a stuck engine hold. The wedge
	// depends only on the committed count, so a resumed run wedges where
	// an uninterrupted one would.
	LivelockAfter uint64

	// StatsBoundaryAt, when nonzero, calls StatsBoundaryFn once at the
	// committed-instruction boundary before instruction StatsBoundaryAt,
	// passing the same fully populated stats view of the run so far that a
	// Snapshot's Res carries. Unlike checkpointing it copies no
	// architectural state, so it costs nothing between boundaries; the
	// sampled-simulation replayer (internal/sampling) subtracts the
	// boundary stats from the final Result to isolate a measurement window
	// from its warmup prefix.
	StatsBoundaryAt uint64
	StatsBoundaryFn func(Result)
}

// runState is the complete mutable state of one cycle-loop run, grouped so
// checkpoint capture and restore see every field the loop depends on. The
// slices and pools are sized by Config once per run; the loop mutates the
// fields in place, so a run still allocates O(1).
type runState struct {
	res        Result
	regReady   [isa.NumRegs]uint64 // completion cycle of last writer
	commitRing []uint64
	iq         issueQueue
	loadRing   []uint64
	storeRing  []uint64
	fetchLim   widthLimiter
	commitLim  widthLimiter
	fu         [numFUs]fuPool // indexed by uop.class

	feReady     uint64 // front-end redirect: no fetch before this cycle
	lastCommit  uint64
	nLoads      uint64
	nStores     uint64
	stallCursor uint64 // end of the last accounted ROB-stall window

	// Ring positions of the next instruction's ROB, LQ and SQ entries:
	// seq, nLoads and nStores modulo the ring sizes, kept as wrapping
	// cursors so the loop never divides.
	robPos, lqPos, sqPos int

	pcRing [livelockPCWindow]int // trailing committed PCs, indexed by seq
}

func (c *Core) newRunState() *runState {
	return &runState{
		commitRing: make([]uint64, c.cfg.ROBSize),
		iq:         newIssueQueue(c.cfg.IQSize),
		loadRing:   make([]uint64, c.cfg.LQSize),
		storeRing:  make([]uint64, c.cfg.SQSize),
		fetchLim:   widthLimiter{width: c.cfg.Width},
		commitLim:  widthLimiter{width: c.cfg.Width},
		fu: [numFUs]fuPool{
			fuALU:   newFUPool(c.cfg.IntALUs, 1, true),
			fuMul:   newFUPool(c.cfg.IntMuls, c.cfg.MulLatency, true),
			fuDiv:   newFUPool(c.cfg.IntDivs, c.cfg.DivLatency, false),
			fuLoad:  newFUPool(c.cfg.LoadPorts, 1, true),
			fuStore: newFUPool(c.cfg.StorePorts, 1, true),
		},
	}
}

// Functional-unit pools, the uop classes that issue to them.
const (
	fuALU = iota
	fuMul // multiplies and the hash op
	fuDiv
	fuLoad
	fuStore
	numFUs
)

// uop is the timing model's decode of one static instruction: what the
// cycle loop would otherwise re-derive from its isa.Inst on every dynamic
// instance.
type uop struct {
	srcs      uint16 // bit r set when the instruction reads register r
	class     uint8  // the functional-unit pool it issues to
	lat       uint64 // issue to completion, for classes other than load and store
	branch    bool   // a branch: counted, and resolved at completion
	predicted bool   // a conditional branch: goes through the predictor
	writes    bool   // writes dst
	dst       isa.Reg
}

// decode builds the uop of every instruction of the frontend's program,
// indexed by PC, once per run.
func (c *Core) decode() []uop {
	code := c.fe.Prog.Code
	uops := make([]uop, len(code))
	for pc, in := range code {
		u := uop{srcs: in.SrcMask(), class: fuALU, lat: 1, branch: in.Op.IsBranch(), writes: in.Op.WritesDst(), dst: in.Dst % isa.NumRegs}
		u.predicted = u.branch && in.Cond != isa.Always
		switch {
		case in.Op.IsLoad():
			u.class = fuLoad
		case in.Op.IsStore():
			u.class = fuStore
		case in.Op == isa.Mul:
			u.class, u.lat = fuMul, c.cfg.MulLatency
		case in.Op == isa.Div:
			u.class, u.lat = fuDiv, c.cfg.DivLatency
		case in.Op == isa.Hash:
			u.class, u.lat = fuMul, c.cfg.HashLatency
		}
		uops[pc] = u
	}
	return uops
}

// nextMultiple returns the first multiple of every after seq, or the
// maximum uint64 (never reached by the loop) when every is 0 or the
// multiple does not fit.
func nextMultiple(seq, every uint64) uint64 {
	if every == 0 {
		return math.MaxUint64
	}
	n := seq/every + 1
	if n > math.MaxUint64/every {
		return math.MaxUint64
	}
	return n * every
}

// wrap advances a ring position by one.
func wrap(pos, size int) int {
	if pos++; pos == size {
		return 0
	}
	return pos
}

// release lets the functional-unit and DRAM calendars forget the past.
// Every later instruction dispatches at or after the fetch limiter's cycle
// and issues after it dispatches (ready = disp+1), so no functional-unit
// booking will target that cycle or an earlier one. Every later memory
// request is made at or after the cycle of an access no earlier than that
// dispatch: a demand issue, a store's commit, the start of a ROB stall, or
// an engine cursor that starts from one of these. The loop calls it every
// cancelCheckInterval instructions, which keeps the calendars' state
// bounded by the window.
func (c *Core) release(rs *runState) {
	for i := range rs.fu {
		rs.fu[i].release(rs.fetchLim.cycle)
	}
	c.hier.Release(rs.fetchLim.cycle)
}

// lastPCs returns the trailing committed PCs before instruction seq,
// oldest first.
func (rs *runState) lastPCs(seq uint64) []int {
	n := uint64(livelockPCWindow)
	if seq < n {
		n = seq
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for s := seq - n; s < seq; s++ {
		out = append(out, rs.pcRing[s%livelockPCWindow])
	}
	return out
}

// setLastPCs rebuilds the PC ring from a snapshot's trailing-PC list.
func (rs *runState) setLastPCs(seq uint64, pcs []int) {
	for i, pc := range pcs {
		s := seq - uint64(len(pcs)) + uint64(i)
		rs.pcRing[s%livelockPCWindow] = pc
	}
}

// RunWithOptions is RunContext plus checkpoint/resume and the retirement
// watchdog. See RunOptions for the semantics of each option.
func (c *Core) RunWithOptions(ctx context.Context, maxInsts uint64, opts RunOptions) (Result, error) {
	hostStart := time.Now()
	cancelCh := ctx.Done()
	var runErr error
	var di interp.DynInst // the instruction in flight, refilled in place each iteration
	rs := c.newRunState()
	uops := c.decode()

	var startSeq uint64
	if opts.Resume != nil {
		var err error
		if startSeq, err = c.restore(rs, opts.Resume); err != nil {
			return Result{}, err
		}
	}
	var ivStart Result // stats at the open interval's first boundary
	if c.traceEvery > 0 {
		ivStart = c.intervalRes(rs)
	}
	// The next boundary at which a checkpoint is taken and an interval
	// sampled: the first multiple of each cadence after startSeq, so the
	// loop compares instead of dividing.
	nextCkpt, nextSample := nextMultiple(startSeq, opts.CheckpointEvery), nextMultiple(startSeq, c.traceEvery)

	for seq := startSeq; seq < maxInsts; seq++ {
		if seq%cancelCheckInterval == 0 {
			c.release(rs)
			if cancelCh != nil {
				select {
				case <-cancelCh:
					runErr = ctx.Err()
				default:
				}
				if runErr != nil {
					break
				}
			}
		}
		if opts.StatsBoundaryAt > 0 && seq == opts.StatsBoundaryAt && opts.StatsBoundaryFn != nil {
			opts.StatsBoundaryFn(c.boundaryRes(rs))
		}
		if seq == nextCkpt {
			nextCkpt = nextMultiple(seq, opts.CheckpointEvery)
			snap, err := c.snapshot(rs, seq)
			if err == nil && opts.CheckpointFn != nil {
				err = opts.CheckpointFn(snap)
			}
			if err != nil {
				runErr = err
				break
			}
		}
		if seq == nextSample {
			nextSample = nextMultiple(seq, c.traceEvery)
			ivStart = c.closeInterval(rs, ivStart)
		}
		if !c.fe.StepInto(&di) {
			break
		}
		u := &uops[di.PC]

		// ---- Fetch / dispatch ----
		cand := rs.feReady
		disp := rs.fetchLim.next(cand)

		// Issue-queue occupancy: entries are allocated at dispatch and freed
		// (out of order) at issue; when the queue is full, dispatch waits
		// for the earliest outstanding issue.
		if f := rs.iq.admit(disp); f > disp {
			disp = rs.fetchLim.next(f)
		}
		// Load/store queue occupancy: entries free at commit.
		if u.class == fuLoad && rs.nLoads >= uint64(len(rs.loadRing)) {
			if f := rs.loadRing[rs.lqPos]; f > disp {
				disp = rs.fetchLim.next(f)
			}
		}
		if u.class == fuStore && rs.nStores >= uint64(len(rs.storeRing)) {
			if f := rs.storeRing[rs.sqPos]; f > disp {
				disp = rs.fetchLim.next(f)
			}
		}
		// ROB occupancy: dispatch must wait for the entry ROBSize back to
		// commit. Time spent waiting here is the full-ROB stall that
		// triggers classic runahead.
		if seq >= uint64(len(rs.commitRing)) {
			if f := rs.commitRing[rs.robPos]; f > disp {
				// Only account the portion of the stall window not already
				// counted for an earlier instruction in the same stall.
				from := disp
				if rs.stallCursor > from {
					from = rs.stallCursor
				}
				if f > from {
					rs.res.ROBStallCycles += f - from
					if c.trace != nil {
						c.trace.Emit(trace.EvROBStall, from, f, di.PC, 0, 0)
					}
					if c.engine != nil {
						c.engine.OnROBStall(from, f)
					}
					rs.stallCursor = f
				}
				disp = rs.fetchLim.next(f)
			}
		}

		// ---- Issue ----
		ready := disp + 1
		for m := u.srcs; m != 0; m &= m - 1 {
			if r := rs.regReady[bits.TrailingZeros16(m)]; r > ready {
				ready = r
			}
		}

		issue := rs.fu[u.class].issue(ready)
		var done uint64
		switch u.class {
		case fuLoad:
			done = c.hier.Access(di.Addr, issue, false, di.PC).Done
			rs.res.Loads++
		case fuStore:
			done = issue + 1 // store completes into the SQ; memory at commit
			rs.res.Stores++
		default:
			done = issue + u.lat
		}
		rs.iq.record(issue)

		// ---- Branch resolution ----
		if u.branch {
			rs.res.Branches++
			if u.predicted {
				if c.bp.Update(uint64(di.PC), di.Taken) {
					redirect := done + uint64(c.cfg.FrontendDepth)
					if redirect > rs.feReady {
						rs.feReady = redirect
					}
				}
			}
		}

		// ---- Commit (in order, width-limited) ----
		cc := done + 1
		if cc <= rs.lastCommit {
			cc = rs.lastCommit
		}
		var hold uint64
		if c.engine != nil {
			hold = c.engine.CommitBlockedUntil()
		}
		if opts.LivelockAfter > 0 && seq >= opts.LivelockAfter {
			hold = livelockHold
		}
		if hold > cc {
			rs.res.CommitHoldCycles += hold - cc
			if c.trace != nil {
				c.trace.Emit(trace.EvCommitHold, cc, hold, di.PC, 0, 0)
			}
			cc = hold
		}
		cc = rs.commitLim.next(cc)
		// Retirement watchdog: a commit-to-commit gap beyond the budget
		// means retirement has effectively stopped (a stuck engine hold, a
		// runaway completion time). Abort with the pipeline state instead
		// of spinning the worker.
		if opts.WatchdogBudget > 0 && cc-rs.lastCommit > opts.WatchdogBudget {
			runErr = c.livelock(rs, seq, di, disp, ready, issue, done, cc, hold, opts.WatchdogBudget)
			break
		}
		rs.lastCommit = cc
		rs.commitRing[rs.robPos] = cc
		rs.robPos = wrap(rs.robPos, len(rs.commitRing))
		switch u.class {
		case fuLoad:
			rs.loadRing[rs.lqPos] = cc
			rs.lqPos = wrap(rs.lqPos, len(rs.loadRing))
			rs.nLoads++
		case fuStore:
			rs.storeRing[rs.sqPos] = cc
			rs.sqPos = wrap(rs.sqPos, len(rs.storeRing))
			rs.nStores++
			// The store drains to memory at commit.
			c.hier.Access(di.Addr, cc, true, di.PC)
		}
		if u.writes {
			rs.regReady[u.dst] = done
		}
		rs.pcRing[seq%livelockPCWindow] = di.PC
		rs.res.Instructions++

		if c.engine != nil {
			c.engine.OnCommit(&di, cc)
		}
		if c.traceFn != nil && seq < c.traceN {
			c.traceFn(seq, di.PC, disp, ready, issue, done, cc)
		}
	}

	// The final, partial interval, closed before FinishStats retires the
	// MSHR file; a run that ended on a cadence boundary has none.
	if c.traceEvery > 0 && rs.res.Instructions > ivStart.Instructions {
		c.closeInterval(rs, ivStart)
	}

	c.hier.FinishStats(rs.lastCommit)
	res := c.boundaryRes(rs)
	res.SchemaVersion = ResultSchemaVersion
	res.HostNS = time.Since(hostStart).Nanoseconds()
	res.Technique = "ooo"
	if c.engine != nil {
		res.Technique = c.engine.Name()
	}
	res.DeriveTotals()
	return res, runErr
}

// intervalRes is the stats view the interval sampler diffs. Read-only: it
// must not perturb the simulation (MSHRBusyCyclesAt, never FinishStats).
func (c *Core) intervalRes(rs *runState) Result {
	r := c.boundaryRes(rs)
	// Intervals integrate MSHR occupancy up to the last commit; the stats
	// boundary and snapshots read hier.Stats, which only FinishStats
	// settles. Neither reading is right for a window, and changing either
	// moves output bytes (DESIGN.md, "Sampled simulation").
	r.Mem.MSHRBusyCycles = c.hier.MSHRBusyCyclesAt(rs.lastCommit)
	return r
}

// closeInterval hands the recorder the counters accumulated since the
// boundary start and returns the new boundary.
func (c *Core) closeInterval(rs *runState, start Result) Result {
	end := c.intervalRes(rs)
	c.trace.AddInterval(start.Instructions, end.Instructions, start.Cycles, end.Cycles, end.Sub(start).TraceCounters())
	return end
}

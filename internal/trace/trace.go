// Package trace is the simulator's introspection layer: a ring-buffered
// structured event collector plus an interval time-series sampler, threaded
// through cpu.Core, runahead engines, the memory hierarchy, and the
// prefetchers.
//
// Two contracts govern the whole package:
//
//   - Observation only. Recorder methods read simulator state but never
//     mutate it, so a traced run produces a Result.Canonical() bit-identical
//     to the untraced run (guarded by TestTracedBitIdentity).
//   - Zero overhead when disabled. Every method is safe on a nil *Recorder
//     and returns immediately; instrumented code either calls through a nil
//     receiver or guards with a single pointer check, and the hot commit
//     loop stays allocation-free (guarded by TestHotPathAllocations).
//
// The package sits below every simulator package (it imports none of them),
// so mem, runahead, and cpu can all emit into the same Recorder. Counters is
// therefore a flat struct: at each sampling boundary cpu subtracts the
// previous boundary's Result from the current one and projects the delta
// onto it (cpu.Result.TraceCounters).
package trace

import "slices"

// Kind identifies the event type. The taxonomy is documented in DESIGN.md
// ("Tracing & telemetry").
type Kind uint8

const (
	// EvRunaheadSpawn is a span covering one runahead episode: Cycle..End,
	// PC = trigger PC, Arg = lane count, Arg2 = spawn Reason.
	EvRunaheadSpawn Kind = iota
	// EvRunaheadEnd marks episode termination (instant at the span's end,
	// kept separate so terminations survive ring wrap even when the
	// matching spawn was overwritten).
	EvRunaheadEnd
	// EvDiscoveryStart marks entry into DVR discovery mode (PC = trigger).
	EvDiscoveryStart
	// EvDiscoveryEnd marks discovery completion; Arg = lanes found,
	// Arg2 = 1 when a vectorizable chain was found (a spawn is pending).
	EvDiscoveryEnd
	// EvNestedSpawn marks a nested (NDM) inner-loop spawn inside an
	// episode; PC = inner stride PC, Arg = outer lane count.
	EvNestedSpawn
	// EvVectorBatch is a span covering one vector-batch execution:
	// Cycle..End, PC = batch start PC, Arg = lane count.
	EvVectorBatch
	// EvReconverge marks a reconvergence-stack pop resuming deferred
	// lanes; PC = reconvergence PC, Arg = lanes resumed.
	EvReconverge
	// EvROBStall is a span covering one ROB-stall episode on the main
	// pipeline: Cycle..End, PC = the load blocking retirement.
	EvROBStall
	// EvCommitHold is a span where the engine held commit (DVR offload
	// mode borrowing the backend): Cycle..End.
	EvCommitHold
	// EvPrefetchIssue is a span from prefetch issue to line fill:
	// Cycle..End, Arg = source (mem.Source numbering), Arg2 = fill level.
	EvPrefetchIssue
	// EvPrefetchLate marks a demand access catching an in-flight
	// prefetch (too late to hide the full latency); Arg = source.
	EvPrefetchLate
	// EvPrefetchUseless marks an unused prefetched line evicted from the
	// hierarchy; Arg = source.
	EvPrefetchUseless
	// EvMSHRHighWater marks a new run-maximum MSHR occupancy; Arg = the
	// new high-water mark.
	EvMSHRHighWater
	// EvPatternConfirm marks an IMP indirect pattern reaching confirmed
	// state; PC = indirect load PC, Arg = |coefficient|.
	EvPatternConfirm

	numKinds
)

var kindNames = [numKinds]string{
	EvRunaheadSpawn:   "runahead-spawn",
	EvRunaheadEnd:     "runahead-end",
	EvDiscoveryStart:  "discovery-start",
	EvDiscoveryEnd:    "discovery-end",
	EvNestedSpawn:     "nested-spawn",
	EvVectorBatch:     "vector-batch",
	EvReconverge:      "reconverge",
	EvROBStall:        "rob-stall",
	EvCommitHold:      "commit-hold",
	EvPrefetchIssue:   "prefetch-issue",
	EvPrefetchLate:    "prefetch-late",
	EvPrefetchUseless: "prefetch-useless",
	EvMSHRHighWater:   "mshr-high-water",
	EvPatternConfirm:  "imp-pattern-confirm",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Spawn reasons (Arg2 of EvRunaheadSpawn).
const (
	ReasonStall  uint64 = iota // ROB stall on a confident striding load
	ReasonStride               // decoupled: stride PC recommitted
	ReasonNested               // inner loop of a nested (NDM) episode
)

var reasonNames = [...]string{ReasonStall: "stall", ReasonStride: "stride", ReasonNested: "nested"}

// ReasonString names a spawn reason for sinks.
func ReasonString(r uint64) string {
	if r < uint64(len(reasonNames)) {
		return reasonNames[r]
	}
	return "unknown"
}

// Source names mirror mem.Source numbering (trace cannot import mem; the
// order is asserted by TestSourceNamesMatchMem).
var sourceNames = [...]string{"demand", "stride-pf", "runahead", "imp", "oracle"}

// SourceString names a prefetch source for sinks.
func SourceString(s uint64) string {
	if s < uint64(len(sourceNames)) {
		return sourceNames[s]
	}
	return "unknown"
}

// NumSources is the number of named prefetch sources (== mem's numSources).
const NumSources = len(sourceNames)

// Event is one fixed-size trace record. Span events use Cycle..End;
// instants leave End zero. Arg/Arg2 are Kind-specific (see the Kind docs).
type Event struct {
	Kind  Kind
	Cycle uint64
	End   uint64
	PC    int
	Arg   uint64
	Arg2  uint64
}

// Config sizes a Recorder. Zero values disable the corresponding feature.
type Config struct {
	// Events is the event-ring capacity; once full the oldest events are
	// overwritten (Dropped counts them). 0 disables event collection.
	Events int
	// IntervalEvery samples the counter time-series every N committed
	// instructions. 0 disables interval sampling.
	IntervalEvery uint64

	// OnInterval, when non-nil, is called with each interval the moment
	// it closes (the same values Intervals() later returns, in the same
	// order — both hand out the one stored Interval). It runs on the
	// simulation goroutine, so implementations must be fast and must
	// never block; they must also never mutate simulator state (the
	// bit-identity contract extends to them).
	OnInterval func(Interval)
	// OnEvent, when non-nil, is called with every emitted event — even
	// when Events is 0 and no ring is kept, which is how a live
	// subscriber can watch runahead episodes without paying for event
	// retention. Same discipline as OnInterval: fast, non-blocking,
	// observation only.
	OnEvent func(Event)
}

// Recorder collects events and intervals for one simulation. It is
// not safe for concurrent use; each core run owns its own Recorder (matching
// the one-goroutine-per-simulation model everywhere else in the repo).
//
// All methods are nil-safe: a nil *Recorder is the disabled tracer.
type Recorder struct {
	cfg       Config
	ring      []Event
	emitted   uint64
	intervals []Interval
	curHW     int // interval-local MSHR high-water, reset as each interval closes
	runHW     int // run-wide MSHR high-water
}

// New builds a Recorder. A config with both fields zero still yields a
// usable (if silent) recorder; callers wanting tracing fully off should
// pass a nil *Recorder instead.
func New(cfg Config) *Recorder {
	r := &Recorder{cfg: cfg}
	if cfg.Events > 0 {
		r.ring = make([]Event, cfg.Events)
	}
	return r
}

// IntervalEvery reports the sampling cadence (0 when disabled or nil).
func (r *Recorder) IntervalEvery() uint64 {
	if r == nil {
		return 0
	}
	return r.cfg.IntervalEvery
}

// Emit records one event into the ring, overwriting the oldest when full,
// and forwards it to the OnEvent hook (which fires even without a ring).
func (r *Recorder) Emit(k Kind, cycle, end uint64, pc int, arg, arg2 uint64) {
	if r == nil {
		return
	}
	if r.cfg.OnEvent != nil {
		r.cfg.OnEvent(Event{Kind: k, Cycle: cycle, End: end, PC: pc, Arg: arg, Arg2: arg2})
	}
	if len(r.ring) == 0 {
		return
	}
	r.ring[r.emitted%uint64(len(r.ring))] = Event{Kind: k, Cycle: cycle, End: end, PC: pc, Arg: arg, Arg2: arg2}
	r.emitted++
}

// MSHROccupancy feeds the sampler the current number of in-flight misses,
// tracking per-interval and run-wide high-water marks (the latter emits an
// EvMSHRHighWater event when it rises).
func (r *Recorder) MSHROccupancy(now uint64, n int) {
	if r == nil {
		return
	}
	if n > r.curHW {
		r.curHW = n
	}
	if n > r.runHW {
		r.runHW = n
		r.Emit(EvMSHRHighWater, now, 0, -1, uint64(n), 0)
	}
}

// MSHRHighWater reports the run-wide occupancy maximum seen so far.
func (r *Recorder) MSHRHighWater() int {
	if r == nil {
		return 0
	}
	return r.runHW
}

// AddInterval closes one interval of the series: d holds the counters
// accumulated over committed instructions [startInst, endInst), which
// committed in cycles (startCycle, endCycle]. The caller (cpu.Core)
// closes one every IntervalEvery committed instructions and a final
// partial one at the run end.
func (r *Recorder) AddInterval(startInst, endInst, startCycle, endCycle uint64, d Counters) {
	if r == nil || r.cfg.IntervalEvery == 0 {
		return
	}
	iv := makeInterval(len(r.intervals), startInst, endInst, startCycle, endCycle, d, r.curHW)
	r.curHW = 0
	r.intervals = append(r.intervals, iv)
	if r.cfg.OnInterval != nil {
		r.cfg.OnInterval(iv)
	}
}

// Events returns the ring contents oldest-first. The slice is freshly
// allocated; the Recorder can keep recording afterwards.
func (r *Recorder) Events() []Event {
	if r == nil || len(r.ring) == 0 || r.emitted == 0 {
		return nil
	}
	capU := uint64(len(r.ring))
	if r.emitted <= capU {
		out := make([]Event, r.emitted)
		copy(out, r.ring[:r.emitted])
		return out
	}
	out := make([]Event, capU)
	start := r.emitted % capU
	n := copy(out, r.ring[start:])
	copy(out[n:], r.ring[:start])
	return out
}

// Dropped reports how many events were overwritten by ring wrap.
func (r *Recorder) Dropped() uint64 {
	if r == nil || len(r.ring) == 0 {
		return 0
	}
	if capU := uint64(len(r.ring)); r.emitted > capU {
		return r.emitted - capU
	}
	return 0
}

// Counters is one interval's counter deltas. cpu.Result.TraceCounters
// projects them from the core's, the hierarchy's and the engine's
// counters; trace deliberately knows nothing about those types.
type Counters struct {
	ROBStallCycles     uint64 `json:"rob_stall_cycles"`
	CommitHoldCycles   uint64 `json:"commit_hold_cycles"`
	DemandAccesses     uint64 `json:"demand_accesses"`
	DemandL1Hits       uint64 `json:"demand_l1_hits"`
	DemandDRAM         uint64 `json:"demand_dram"`
	DemandMerged       uint64 `json:"demand_merged"`
	DemandMissCycles   uint64 `json:"demand_miss_cycles"`
	PrefIssued         uint64 `json:"pref_issued"`
	PrefUseful         uint64 `json:"pref_useful"`
	PrefUsefulL1       uint64 `json:"pref_useful_l1"`
	PrefLate           uint64 `json:"pref_late"`
	PrefUnusedEvict    uint64 `json:"pref_unused_evict"`
	MSHRBusyCycles     uint64 `json:"mshr_busy_cycles"`
	DRAMAccesses       uint64 `json:"dram_accesses"`
	RunaheadEpisodes   uint64 `json:"runahead_episodes"`
	RunaheadPrefetches uint64 `json:"runahead_prefetches"`
	RunaheadBusyCycles uint64 `json:"runahead_busy_cycles"`
	VectorUops         uint64 `json:"vector_uops"`
}

// Interval is one step of the sampled time-series: the raw counter deltas
// plus the derived rates the paper's figures are built from.
type Interval struct {
	Index      int    `json:"index"`
	StartInst  uint64 `json:"start_inst"`
	EndInst    uint64 `json:"end_inst"`
	StartCycle uint64 `json:"start_cycle"`
	EndCycle   uint64 `json:"end_cycle"`

	Delta         Counters `json:"delta"`
	MSHRHighWater int      `json:"mshr_high_water"`

	// IPC is committed instructions per cycle over the interval.
	IPC float64 `json:"ipc"`
	// MLP is the mean outstanding-miss count (MSHR occupancy integral
	// over interval cycles). The final interval counts in-flight misses
	// only up to the last commit cycle, so interval MLP sums are a lower
	// bound on the end-of-run figure.
	MLP float64 `json:"mlp"`
	// PrefAccuracy = useful prefetches / issued prefetches.
	PrefAccuracy float64 `json:"pref_accuracy"`
	// PrefCoverage = useful prefetches / (useful + demand misses that
	// went all the way to DRAM): the fraction of would-be DRAM demand
	// misses the prefetchers absorbed.
	PrefCoverage float64 `json:"pref_coverage"`
	// PrefTimeliness = prefetches useful at L1 / useful anywhere (a late
	// prefetch is demoted to the level it reached in time).
	PrefTimeliness float64 `json:"pref_timeliness"`
	// PrefLateFrac = in-flight-overtaken prefetches / issued.
	PrefLateFrac float64 `json:"pref_late_frac"`
	// RunaheadOccupancy = runahead busy cycles / interval cycles. Can
	// exceed 1: the decoupled subthread timeline runs ahead of commit.
	RunaheadOccupancy float64 `json:"runahead_occupancy"`
	// ROBStallFrac = full-ROB stall cycles / interval cycles.
	ROBStallFrac float64 `json:"rob_stall_frac"`
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// makeInterval derives one interval's rates from its bounds and deltas.
func makeInterval(index int, startInst, endInst, startCycle, endCycle uint64, d Counters, hw int) Interval {
	cycles := endCycle - startCycle
	return Interval{
		Index:         index,
		StartInst:     startInst,
		EndInst:       endInst,
		StartCycle:    startCycle,
		EndCycle:      endCycle,
		Delta:         d,
		MSHRHighWater: hw,

		IPC:               ratio(endInst-startInst, cycles),
		MLP:               ratio(d.MSHRBusyCycles, cycles),
		PrefAccuracy:      ratio(d.PrefUseful, d.PrefIssued),
		PrefCoverage:      ratio(d.PrefUseful, d.PrefUseful+d.DemandDRAM),
		PrefTimeliness:    ratio(d.PrefUsefulL1, d.PrefUseful),
		PrefLateFrac:      ratio(d.PrefLate, d.PrefIssued),
		RunaheadOccupancy: ratio(d.RunaheadBusyCycles, cycles),
		ROBStallFrac:      ratio(d.ROBStallCycles, cycles),
	}
}

// Intervals returns the closed intervals in order. The slice is freshly
// allocated; the Recorder can keep recording afterwards.
func (r *Recorder) Intervals() []Interval {
	if r == nil {
		return nil
	}
	return slices.Clone(r.intervals)
}

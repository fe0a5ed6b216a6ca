package cpu

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"dvr/internal/bpred"
	"dvr/internal/calendar"
	"dvr/internal/interp"
	"dvr/internal/mem"
)

// ErrSnapshotMismatch means the snapshot does not fit the core it is being
// restored into: different configuration shapes, a different technique,
// or inconsistent internal dimensions. Callers (the checkpoint store, the
// service) recompute from scratch on it.
var ErrSnapshotMismatch = errors.New("cpu: snapshot does not match core")

// EngineSnapshot carries an engine's serialized state plus its name, so a
// resume under a different technique is rejected instead of silently
// misinterpreted.
type EngineSnapshot struct {
	Name  string          `json:"name"`
	State json.RawMessage `json:"state"`
}

// LimiterState is a widthLimiter's position (its width comes from Config).
type LimiterState struct {
	Cycle uint64 `json:"cycle"`
	Count int    `json:"count"`
}

// Snapshot is the complete state of a simulation at a committed-instruction
// boundary: every field the cycle loop, the hierarchy, the predictor, the
// frontend and the attached engine need to continue bit-identically. It is
// deterministic — two snapshots of the same run at the same instruction
// count are deeply equal — which is what makes checkpoint files
// content-verifiable.
type Snapshot struct {
	Seq uint64 `json:"seq"` // committed instructions so far

	Res        Result          `json:"res"` // stats accumulated by the loop so far
	RegReady   []uint64        `json:"reg_ready"`
	CommitRing []uint64        `json:"commit_ring"`
	IQ         []uint64        `json:"iq"` // outstanding issue cycles, ascending
	LoadRing   []uint64        `json:"load_ring"`
	StoreRing  []uint64        `json:"store_ring"`
	FetchLim   LimiterState    `json:"fetch_lim"`
	CommitLim  LimiterState    `json:"commit_lim"`
	ALU        calendar.State  `json:"alu"`
	Mul        calendar.State  `json:"mul"`
	Div        calendar.State  `json:"div"`
	LoadPorts  calendar.State  `json:"load_ports"`
	StorePorts calendar.State  `json:"store_ports"`
	FeReady    uint64          `json:"fe_ready"`
	LastCommit uint64          `json:"last_commit"`
	NLoads     uint64          `json:"n_loads"`
	NStores    uint64          `json:"n_stores"`
	StallCur   uint64          `json:"stall_cursor"`
	LastPCs    []int           `json:"last_pcs,omitempty"` // most recent committed PCs, oldest first
	Frontend   interp.Snapshot `json:"frontend"`
	Hier       mem.Snapshot    `json:"hier"`
	Bpred      bpred.Snapshot  `json:"bpred"`
	Engine     *EngineSnapshot `json:"engine,omitempty"`
}

// snapshot captures the full simulation state at the boundary before
// instruction seq. Its Res is boundaryRes; a resumed run rebuilds every
// field boundaryRes fills at its own run end.
func (c *Core) snapshot(rs *runState, seq uint64) (*Snapshot, error) {
	// Release first, so the calendars export only what a continuation can
	// still reach and a straight and a resumed run snapshot alike.
	c.release(rs)
	s := &Snapshot{
		Seq:        seq,
		Res:        c.boundaryRes(rs),
		RegReady:   slices.Clone(rs.regReady[:]),
		CommitRing: slices.Clone(rs.commitRing),
		IQ:         rs.iq.export(),
		LoadRing:   slices.Clone(rs.loadRing),
		StoreRing:  slices.Clone(rs.storeRing),
		FetchLim:   LimiterState{rs.fetchLim.cycle, rs.fetchLim.count},
		CommitLim:  LimiterState{rs.commitLim.cycle, rs.commitLim.count},
		ALU:        rs.fu[fuALU].cal.Export(),
		Mul:        rs.fu[fuMul].cal.Export(),
		Div:        rs.fu[fuDiv].cal.Export(),
		LoadPorts:  rs.fu[fuLoad].cal.Export(),
		StorePorts: rs.fu[fuStore].cal.Export(),
		FeReady:    rs.feReady,
		LastCommit: rs.lastCommit,
		NLoads:     rs.nLoads,
		NStores:    rs.nStores,
		StallCur:   rs.stallCursor,
		LastPCs:    rs.lastPCs(seq),
		Frontend:   c.fe.Snapshot(),
		Hier:       c.hier.Snapshot(),
		Bpred:      c.bp.Snapshot(),
	}
	if c.engine != nil {
		raw, err := c.engine.SnapshotState()
		if err != nil {
			return nil, fmt.Errorf("cpu: snapshot engine %s: %w", c.engine.Name(), err)
		}
		s.Engine = &EngineSnapshot{Name: c.engine.Name(), State: raw}
	}
	return s, nil
}

// boundaryRes is the stats view of the run so far: the counters the cycle
// loop maintains plus Cycles, Mem, the branch totals and Engine at their
// boundary values. Snapshots embed it as Res, the stats-boundary hook
// (RunOptions.StatsBoundaryFn) and the interval sampler read it, and the
// run end builds its Result from it after FinishStats.
func (c *Core) boundaryRes(rs *runState) Result {
	bres := rs.res
	bres.Cycles = rs.lastCommit
	bres.Mem = c.hier.Stats
	bres.BranchLookups = c.bp.Lookups
	bres.BranchMispredict = c.bp.Mispredicts
	if c.engine != nil {
		bres.Engine = c.engine.Stats()
	}
	return bres
}

// restore loads s into the run state and the core's components. The core
// must have been built with the same Config (and the same engine attached)
// the snapshot was taken under; every shape is checked and a mismatch
// returns an error wrapping ErrSnapshotMismatch with the loop state
// untouched by the failing stage.
func (c *Core) restore(rs *runState, s *Snapshot) (uint64, error) {
	switch {
	case len(s.RegReady) != len(rs.regReady):
		return 0, fmt.Errorf("%w: %d ready registers, want %d", ErrSnapshotMismatch, len(s.RegReady), len(rs.regReady))
	case len(s.CommitRing) != c.cfg.ROBSize:
		return 0, fmt.Errorf("%w: ROB size %d, config has %d", ErrSnapshotMismatch, len(s.CommitRing), c.cfg.ROBSize)
	case len(s.IQ) > c.cfg.IQSize:
		return 0, fmt.Errorf("%w: %d issue-queue entries, config holds %d", ErrSnapshotMismatch, len(s.IQ), c.cfg.IQSize)
	case !iqLoadable(s.IQ, s.FetchLim.Cycle):
		return 0, fmt.Errorf("%w: issue-queue cycles not ascending within %d of dispatch", ErrSnapshotMismatch, maxIQSpan)
	case len(s.LoadRing) != c.cfg.LQSize:
		return 0, fmt.Errorf("%w: LQ size %d, config has %d", ErrSnapshotMismatch, len(s.LoadRing), c.cfg.LQSize)
	case len(s.StoreRing) != c.cfg.SQSize:
		return 0, fmt.Errorf("%w: SQ size %d, config has %d", ErrSnapshotMismatch, len(s.StoreRing), c.cfg.SQSize)
	case len(s.LastPCs) > livelockPCWindow:
		return 0, fmt.Errorf("%w: %d trailing PCs, window is %d", ErrSnapshotMismatch, len(s.LastPCs), livelockPCWindow)
	}
	// The frontend is restored before the engine, and must stay so: memory
	// deltas are words that differ from the base chain, and an engine's
	// cloned interpreter (the Oracle's look-ahead view) forks the
	// frontend's memory, so its delta only means what it did at snapshot
	// time once the frontend underneath reads as it did then.
	if err := c.fe.Restore(s.Frontend); err != nil {
		return 0, fmt.Errorf("%w: frontend: %v", ErrSnapshotMismatch, err)
	}
	if err := c.hier.Restore(s.Hier); err != nil {
		return 0, fmt.Errorf("%w: hierarchy: %v", ErrSnapshotMismatch, err)
	}
	if err := c.bp.Restore(s.Bpred); err != nil {
		return 0, fmt.Errorf("%w: predictor: %v", ErrSnapshotMismatch, err)
	}
	switch {
	case s.Engine == nil && c.engine != nil:
		return 0, fmt.Errorf("%w: snapshot has no engine, core has %s", ErrSnapshotMismatch, c.engine.Name())
	case s.Engine != nil && c.engine == nil:
		return 0, fmt.Errorf("%w: snapshot has engine %s, core has none", ErrSnapshotMismatch, s.Engine.Name)
	case s.Engine != nil:
		if c.engine.Name() != s.Engine.Name {
			return 0, fmt.Errorf("%w: snapshot has engine %s, core has %s", ErrSnapshotMismatch, s.Engine.Name, c.engine.Name())
		}
		if err := c.engine.RestoreState(s.Engine.State); err != nil {
			return 0, fmt.Errorf("%w: engine %s: %v", ErrSnapshotMismatch, s.Engine.Name, err)
		}
	}
	rs.res = s.Res
	copy(rs.regReady[:], s.RegReady)
	copy(rs.commitRing, s.CommitRing)
	copy(rs.loadRing, s.LoadRing)
	copy(rs.storeRing, s.StoreRing)
	rs.fetchLim.cycle, rs.fetchLim.count = s.FetchLim.Cycle, s.FetchLim.Count
	rs.commitLim.cycle, rs.commitLim.count = s.CommitLim.Cycle, s.CommitLim.Count
	// Dispatch never precedes the fetch limiter's cycle, so it is the
	// queue's cursor: entries issuing by then are already free.
	rs.iq.load(s.IQ, s.FetchLim.Cycle)
	rs.fu[fuALU].cal.Import(s.ALU)
	rs.fu[fuMul].cal.Import(s.Mul)
	rs.fu[fuDiv].cal.Import(s.Div)
	rs.fu[fuLoad].cal.Import(s.LoadPorts)
	rs.fu[fuStore].cal.Import(s.StorePorts)
	rs.feReady = s.FeReady
	rs.lastCommit = s.LastCommit
	rs.nLoads = s.NLoads
	rs.nStores = s.NStores
	rs.robPos = int(s.Seq % uint64(len(rs.commitRing)))
	rs.lqPos = int(s.NLoads % uint64(len(rs.loadRing)))
	rs.sqPos = int(s.NStores % uint64(len(rs.storeRing)))
	rs.stallCursor = s.StallCur
	rs.setLastPCs(s.Seq, s.LastPCs)
	return s.Seq, nil
}

package runahead

import (
	"encoding/json"
	"fmt"

	"dvr/internal/cpu"
	"dvr/internal/isa"
)

// vectorSnapshot is the complete engine state of Vector between committed
// instructions. Episodes run synchronously inside OnCommit/OnROBStall, so
// there is never an in-flight vecRun to capture.
type vectorSnapshot struct {
	RPT       RPT                 `json:"rpt"`
	Regs      [isa.NumRegs]uint64 `json:"regs"`
	Disc      *discovery          `json:"disc,omitempty"`
	Pending   *discoveryResult    `json:"pending,omitempty"`
	BusyUntil uint64              `json:"busy_until"`
	HoldUntil uint64              `json:"hold_until"`
	Stats     cpu.EngineStats     `json:"stats"`
	LanesSum  uint64              `json:"lanes_sum"`
}

// SnapshotState implements cpu.Engine.
func (v *Vector) SnapshotState() (json.RawMessage, error) {
	return json.Marshal(vectorSnapshot{
		RPT: *v.rpt, Regs: v.regs, Disc: v.disc, Pending: v.pending,
		BusyUntil: v.busyUntil, HoldUntil: v.holdUntil, Stats: v.stats, LanesSum: v.lanesSum,
	})
}

// RestoreState implements cpu.Engine. The engine must be freshly
// constructed over the already-restored frontend and hierarchy.
func (v *Vector) RestoreState(raw json.RawMessage) error {
	var s vectorSnapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("runahead: decode %s state: %w", v.opt.Name, err)
	}
	if err := v.rpt.Restore(s.RPT); err != nil {
		return err
	}
	v.regs, v.disc, v.pending = s.Regs, s.Disc, s.Pending
	v.busyUntil, v.holdUntil, v.stats, v.lanesSum = s.BusyUntil, s.HoldUntil, s.Stats, s.LanesSum
	return nil
}

// preSnapshot is PRE's engine state: episodes are fully transient (each
// clones the frontend and discards it), so only the counters persist.
type preSnapshot struct {
	Stats cpu.EngineStats `json:"stats"`
}

// SnapshotState implements cpu.Engine.
func (p *PRE) SnapshotState() (json.RawMessage, error) {
	return json.Marshal(preSnapshot{Stats: p.stats})
}

// RestoreState implements cpu.Engine.
func (p *PRE) RestoreState(raw json.RawMessage) error {
	var s preSnapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("runahead: decode pre state: %w", err)
	}
	p.stats = s.Stats
	return nil
}

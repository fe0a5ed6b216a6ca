package prefetch

import (
	"encoding/json"
	"fmt"

	"dvr/internal/cpu"
	"dvr/internal/interp"
	"dvr/internal/runahead"
)

// impSnapshot is IMP's state: the live stride table, last-value entries
// and pattern entries, the latter in insertion (order-slice) order so a
// restored IMP iterates identically.
type impSnapshot struct {
	RPT     runahead.RPT    `json:"rpt"`
	LastVal []impLastVal    `json:"last_val,omitempty"`
	Pats    []impEntry      `json:"pats,omitempty"`
	Stats   cpu.EngineStats `json:"stats"`
}

// UnmarshalJSON decodes a checkpointed entry into a fresh pattern.
func (e *impEntry) UnmarshalJSON(b []byte) error {
	var v struct {
		impKey
		impPattern
	}
	err := json.Unmarshal(b, &v)
	e.impKey, e.impPattern = v.impKey, &v.impPattern
	return err
}

// SnapshotState implements cpu.Engine.
func (p *IMP) SnapshotState() (json.RawMessage, error) {
	return json.Marshal(impSnapshot{RPT: *p.rpt, LastVal: p.lastVal, Pats: p.order, Stats: p.stats})
}

// RestoreState implements cpu.Engine. The IMP must be freshly constructed
// over the already-restored hierarchy and functional memory (NewIMP
// re-registers the L1-D observer, which hierarchy restore preserves). The
// pattern map is rebuilt from the order slice.
func (p *IMP) RestoreState(raw json.RawMessage) error {
	var s impSnapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("prefetch: decode imp state: %w", err)
	}
	if err := p.rpt.Restore(s.RPT); err != nil {
		return err
	}
	p.pats = make(map[impKey]*impPattern, len(s.Pats))
	for _, en := range s.Pats {
		if _, dup := p.pats[en.impKey]; dup {
			return fmt.Errorf("prefetch: imp state has duplicate pattern key %+v", en.impKey)
		}
		p.pats[en.impKey] = en.impPattern
	}
	p.lastVal, p.order, p.stats = s.LastVal, s.Pats, s.Stats
	return nil
}

// oracleSnapshot captures the Oracle's future view: the ahead interpreter's
// state relative to the main frontend (its memory is a copy-on-write fork
// of the frontend's, so the word delta is just the stores the future view
// has run ahead of), the commit horizon, and the pending prefetch queue.
type oracleSnapshot struct {
	Ahead     interp.Snapshot `json:"ahead"`
	Committed uint64          `json:"committed"`
	Queue     []uint64        `json:"queue,omitempty"`
	Stats     cpu.EngineStats `json:"stats"`
}

// SnapshotState implements cpu.Engine.
func (o *Oracle) SnapshotState() (json.RawMessage, error) {
	return json.Marshal(oracleSnapshot{
		Ahead:     o.ahead.Snapshot(),
		Committed: o.committed,
		Queue:     o.queue,
		Stats:     o.stats,
	})
}

// RestoreState implements cpu.Engine. The Oracle must be freshly
// constructed over the already-restored frontend: NewOracle clones it, so
// o.ahead's memory is a fork whose base is the frontend's (restored)
// memory object, and applying the snapshot's word delta on top of what the
// frontend now reads reproduces the exact future view.
func (o *Oracle) RestoreState(raw json.RawMessage) error {
	var s oracleSnapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("prefetch: decode oracle state: %w", err)
	}
	if err := o.ahead.Restore(s.Ahead); err != nil {
		return fmt.Errorf("prefetch: oracle ahead view: %w", err)
	}
	o.committed = s.Committed
	o.queue = append(o.queue[:0], s.Queue...)
	o.stats = s.Stats
	return nil
}

package prefetch

import (
	"encoding/json"
	"fmt"

	"dvr/internal/cpu"
	"dvr/internal/interp"
	"dvr/internal/runahead"
)

// impLastValSnapshot is one striding-PC value entry; order matters (it is
// the training-scan order) and is preserved.
type impLastValSnapshot struct {
	PC  int    `json:"pc"`
	Val uint64 `json:"val"`
}

// impPatternSnapshot is one pattern-table entry together with its key,
// serialized in insertion (order-slice) order so a restored IMP iterates
// identically.
type impPatternSnapshot struct {
	StridePC  int    `json:"stride_pc"`
	IndirPC   int    `json:"indir_pc"`
	Coeff     int64  `json:"coeff"`
	Base      uint64 `json:"base"`
	Conf      int    `json:"conf"`
	Confirmed bool   `json:"confirmed,omitempty"`
}

type impSnapshot struct {
	RPT     runahead.RPTSnapshot `json:"rpt"`
	LastVal []impLastValSnapshot `json:"last_val,omitempty"`
	Pats    []impPatternSnapshot `json:"pats,omitempty"`
	Stats   cpu.EngineStats      `json:"stats"`
}

// SnapshotState implements cpu.EngineState.
func (p *IMP) SnapshotState() (json.RawMessage, error) {
	s := impSnapshot{RPT: p.rpt.Snapshot(), Stats: p.stats}
	for _, lv := range p.lastVal {
		s.LastVal = append(s.LastVal, impLastValSnapshot{PC: lv.pc, Val: lv.val})
	}
	for _, en := range p.order {
		k, pat := en.key, en.pat
		s.Pats = append(s.Pats, impPatternSnapshot{
			StridePC: k.stridePC, IndirPC: k.indirPC, Coeff: k.coeff,
			Base: pat.base, Conf: pat.conf, Confirmed: pat.confirmed,
		})
	}
	return json.Marshal(s)
}

// RestoreState implements cpu.EngineState. The IMP must be freshly
// constructed over the already-restored hierarchy and functional memory
// (NewIMP re-registers the L1-D observer, which hierarchy restore
// preserves).
func (p *IMP) RestoreState(raw json.RawMessage) error {
	var s impSnapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("prefetch: decode imp state: %w", err)
	}
	if err := p.rpt.Restore(s.RPT); err != nil {
		return err
	}
	p.lastVal = p.lastVal[:0]
	for _, lv := range s.LastVal {
		p.lastVal = append(p.lastVal, impLastVal{pc: lv.PC, val: lv.Val})
	}
	p.pats = make(map[impKey]*impPattern, len(s.Pats))
	p.order = p.order[:0]
	for _, ps := range s.Pats {
		k := impKey{stridePC: ps.StridePC, indirPC: ps.IndirPC, coeff: ps.Coeff}
		if _, dup := p.pats[k]; dup {
			return fmt.Errorf("prefetch: imp state has duplicate pattern key %+v", k)
		}
		pat := &impPattern{base: ps.Base, conf: ps.Conf, confirmed: ps.Confirmed}
		p.pats[k] = pat
		p.order = append(p.order, impEntry{k, pat})
	}
	p.stats = s.Stats
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

// SnapshotState implements cpu.EngineState.
func (o *Oracle) SnapshotState() (json.RawMessage, error) {
	return json.Marshal(oracleSnapshot{
		Ahead:     o.ahead.Snapshot(),
		Committed: o.committed,
		Queue:     o.queue,
		Stats:     o.stats,
	})
}

// RestoreState implements cpu.EngineState. The Oracle must be freshly
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

var (
	_ cpu.EngineState = (*IMP)(nil)
	_ cpu.EngineState = (*Oracle)(nil)
)

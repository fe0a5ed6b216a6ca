package experiments

import (
	"encoding/json"
	"fmt"

	"dvr/internal/cpu"
	"dvr/internal/interp"
	"dvr/internal/trace"
)

// JobOpts are the durability and tracing options of an exact Job. The
// zero value is a plain run.
type JobOpts struct {
	// Resume restores the run from a snapshot instead of starting at
	// instruction zero. The snapshot must have been taken by the same
	// engine build for the same (workload ref, technique, config) — the
	// checkpoint package's State.Matches checks that — and the resumed run
	// is bit-identical to an uninterrupted one.
	Resume *cpu.Snapshot

	// CheckpointEvery captures a snapshot every N committed instructions
	// and hands it to Checkpoint; 0 disables checkpointing.
	CheckpointEvery uint64
	Checkpoint      func(*cpu.Snapshot) error

	// WatchdogBudget aborts the run with a *cpu.LivelockError (carrying a
	// forensics dump) when no instruction commits for this many cycles; 0
	// disables the watchdog.
	WatchdogBudget uint64

	// LivelockAfter is a scripted fault: after this many committed
	// instructions the commit stream wedges permanently, which is how the
	// chaos suite drives the watchdog without a real simulator bug. 0
	// means run normally.
	LivelockAfter uint64

	// Trace, when non-nil, instruments the run with the recorder: typed
	// events and interval samples per the recorder's Config. Tracing is
	// observational — the Result is bit-identical with or without it.
	Trace *trace.Recorder
}

// livelockHold is the commit-block cycle a wedged engine reports: far
// beyond any reachable commit cycle, so the very next commit attempt
// exceeds any watchdog budget.
const livelockHold = uint64(1) << 62

// livelockEngine wraps a technique's engine (or stands alone for the OoO
// baseline) and, after a scripted number of commits, blocks commit at an
// unreachable cycle forever. It exists so fault injection can produce a
// genuine retirement stall — through the same CommitBlockedUntil path a
// buggy delayed-termination engine would use — without planting a bug.
type livelockEngine struct {
	inner   cpu.Engine // nil for the OoO baseline
	after   uint64
	commits uint64
}

func (e *livelockEngine) Name() string {
	if e.inner != nil {
		return e.inner.Name()
	}
	return "ooo"
}

func (e *livelockEngine) OnCommit(di interp.DynInst, cycle uint64) {
	e.commits++
	if e.inner != nil {
		e.inner.OnCommit(di, cycle)
	}
}

func (e *livelockEngine) OnROBStall(from, to uint64) {
	if e.inner != nil {
		e.inner.OnROBStall(from, to)
	}
}

func (e *livelockEngine) Advance(now uint64) {
	if e.inner != nil {
		e.inner.Advance(now)
	}
}

func (e *livelockEngine) CommitBlockedUntil() uint64 {
	if e.commits >= e.after {
		return livelockHold
	}
	if e.inner != nil {
		return e.inner.CommitBlockedUntil()
	}
	return 0
}

// livelockSnapshot serializes the wrapper's wedge progress alongside the
// wrapped engine's state, so a checkpointed faulty run restores with the
// fault intact (not that a wedged job's checkpoint survives — the service
// drops it — but the snapshot contract must hold for every engine).
type livelockSnapshot struct {
	Commits uint64          `json:"commits"`
	Inner   json.RawMessage `json:"inner,omitempty"`
}

func (e *livelockEngine) SnapshotState() (json.RawMessage, error) {
	s := livelockSnapshot{Commits: e.commits}
	if e.inner != nil {
		es, ok := e.inner.(cpu.EngineState)
		if !ok {
			return nil, fmt.Errorf("%w: engine %s", cpu.ErrCheckpointUnsupported, e.inner.Name())
		}
		raw, err := es.SnapshotState()
		if err != nil {
			return nil, err
		}
		s.Inner = raw
	}
	return json.Marshal(s)
}

func (e *livelockEngine) RestoreState(raw json.RawMessage) error {
	var s livelockSnapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return err
	}
	e.commits = s.Commits
	if e.inner != nil {
		es, ok := e.inner.(cpu.EngineState)
		if !ok {
			return fmt.Errorf("%w: engine %s", cpu.ErrCheckpointUnsupported, e.inner.Name())
		}
		return es.RestoreState(s.Inner)
	}
	return nil
}

func (e *livelockEngine) Stats() cpu.EngineStats {
	if e.inner != nil {
		return e.inner.Stats()
	}
	return cpu.EngineStats{}
}

// SetTracer implements cpu.Traceable by forwarding to the wrapped engine,
// so Core.Instrument reaches the real engine through the fault wrapper.
func (e *livelockEngine) SetTracer(r *trace.Recorder) {
	if t, ok := e.inner.(cpu.Traceable); ok {
		t.SetTracer(r)
	}
}

var (
	_ cpu.Engine      = (*livelockEngine)(nil)
	_ cpu.EngineState = (*livelockEngine)(nil)
	_ cpu.Traceable   = (*livelockEngine)(nil)
)

package experiments

import (
	"dvr/internal/cpu"
	"dvr/internal/trace"
)

// JobOpts are the durability and tracing options of an exact Job. The
// zero value is a plain run.
type JobOpts struct {
	// Resume restores the run from a snapshot instead of starting at
	// instruction zero. The snapshot must have been taken by the same
	// engine build for the same (workload ref, technique, config) — a
	// checkpoint.Journal hands out only such a snapshot — and the resumed
	// run is bit-identical to an uninterrupted one.
	Resume *cpu.Snapshot

	// CheckpointEvery captures a snapshot every N committed instructions
	// and hands it to Checkpoint; 0 disables checkpointing.
	CheckpointEvery uint64
	Checkpoint      func(*cpu.Snapshot) error

	// WatchdogBudget aborts the run with a *cpu.LivelockError (carrying a
	// forensics dump) when no instruction commits for this many cycles; 0
	// disables the watchdog.
	WatchdogBudget uint64

	// LivelockAfter is a scripted fault (cpu.RunOptions.LivelockAfter):
	// after this many committed instructions the commit stream wedges
	// permanently, which is how the chaos suite drives the watchdog
	// without a real simulator bug. 0 means run normally.
	LivelockAfter uint64

	// Trace, when non-nil, instruments the run with the recorder: typed
	// events and interval samples per the recorder's Config. Tracing is
	// observational — the Result is bit-identical with or without it.
	Trace *trace.Recorder
}

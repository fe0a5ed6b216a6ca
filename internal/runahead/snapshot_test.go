package runahead

import (
	"context"
	"errors"
	"testing"

	"dvr/internal/cpu"
	"dvr/internal/interp"
)

// TestResumeMidDiscovery checkpoints DVR at every commit of the gather
// loop and resumes, into a fresh core and engine, one snapshot taken while
// Discovery Mode is in progress and one taken while a discovered chain
// waits for its striding load to commit. Both must finish with the
// canonical Result of the uninterrupted run.
func TestResumeMidDiscovery(t *testing.T) {
	const roi = 20_000
	// run simulates the loop; a non-nil onCheckpoint sees the engine beside
	// the snapshot taken before every commit.
	run := func(resume *cpu.Snapshot, onCheckpoint func(*Vector, *cpu.Snapshot) error) (cpu.Result, error) {
		prog, m, _, _ := gatherProgram()
		fe := interp.New(prog, m)
		core := cpu.NewCore(cpu.DefaultConfig(), fe)
		eng := NewDVR(fe, core.Hierarchy())
		core.Attach(eng)
		opts := cpu.RunOptions{Resume: resume}
		if onCheckpoint != nil {
			opts.CheckpointEvery = 1
			opts.CheckpointFn = func(s *cpu.Snapshot) error { return onCheckpoint(eng, s) }
		}
		return core.RunWithOptions(context.Background(), roi, opts)
	}

	full, err := run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Engine.DiscoveryModes == 0 || full.Engine.Episodes == 0 {
		t.Fatalf("DVR never discovered and spawned: %+v", full.Engine)
	}

	errDone := errors.New("both snapshots taken")
	snaps := map[string]*cpu.Snapshot{}
	_, err = run(nil, func(eng *Vector, s *cpu.Snapshot) error {
		if eng.disc != nil && eng.disc.Steps > 1 && snaps["disc"] == nil {
			snaps["disc"] = s
		}
		if eng.pending != nil && snaps["pending"] == nil {
			snaps["pending"] = s
		}
		if len(snaps) == 2 {
			return errDone
		}
		return nil
	})
	if !errors.Is(err, errDone) {
		t.Fatalf("donor run returned %v with snapshots %v, want one mid-discovery and one pending", err, snaps)
	}

	for name, s := range snaps {
		got, err := run(s, nil)
		if err != nil {
			t.Fatalf("resume %s snapshot (seq %d): %v", name, s.Seq, err)
		}
		if got.Canonical() != full.Canonical() {
			t.Errorf("resumed from the %s snapshot at seq %d:\n got %+v\nwant %+v", name, s.Seq, got.Canonical(), full.Canonical())
		}
	}
}

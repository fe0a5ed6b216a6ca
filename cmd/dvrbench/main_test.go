package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"dvr/internal/checkpoint"
	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/service/api"
)

// The two per-job in-process runners, journalled (-checkpoint-dir) and
// traced (-trace), must return what RunAll computes, leave no journal
// behind, and write one trace per job, on a Figure 7-style matrix and on a
// ROB sweep, which runs one (benchmark, technique) pair under several
// configs. The journalled runner also meets the matrix with its first
// cell's journal seeded by one that names the job but will not restore:
// it must drop that journal and run the cell from scratch.
func TestPerJobRunnersMatchRunAll(t *testing.T) {
	quick := experiments.QuickSuite()
	cfg := cpu.DefaultConfig()
	var matrix []experiments.Job
	for _, sp := range quick.All()[:2] {
		for _, tech := range []experiments.Technique{experiments.TechOoO, experiments.TechVR, experiments.TechDVR} {
			matrix = append(matrix, experiments.Job{Spec: sp, Tech: tech, Cfg: cfg})
		}
	}
	i := slices.IndexFunc(experiments.Figures, func(f experiments.Figure) bool { return f.Name == "fig12" })
	sweep := experiments.Figures[i].Jobs(experiments.Suite{GAP: quick.GAP[:1]}, cfg)
	type input struct {
		jobs []experiments.Job
		want []cpu.Result
		seed bool // seed the first cell's journal with an unrestorable one
	}
	sets := []input{{jobs: matrix}, {jobs: sweep}}
	for i := range sets {
		var err error
		if sets[i].want, err = experiments.RunAll(context.Background(), sets[i].jobs); err != nil {
			t.Fatal(err)
		}
	}
	sets = append(sets, input{jobs: matrix, want: sets[0].want, seed: true})
	for _, tc := range []struct {
		name     string
		run      func(dir string) runner
		leftover string
		perJob   int // leftover files per job
	}{
		{"checkpoint-dir", journalled, "*.ckpt", 0},
		{"trace", traced, "*.json", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, set := range sets {
				dir := t.TempDir()
				if set.seed {
					if tc.leftover != "*.ckpt" {
						continue
					}
					seedUnrestorable(t, dir, set.jobs[0], cellNames(set.jobs)[0])
				}
				got, err := tc.run(dir)(context.Background(), set.jobs)
				if err != nil {
					t.Fatal(err)
				}
				for k, j := range set.jobs {
					if g, w := got[k].Canonical(), set.want[k].Canonical(); !reflect.DeepEqual(g, w) {
						t.Errorf("%s/%s at ROB %d differs from RunAll:\n got %+v\nwant %+v", j.Spec.Name, j.Tech, j.Cfg.ROBSize, g, w)
					}
				}
				files, err := filepath.Glob(filepath.Join(dir, tc.leftover))
				if err != nil {
					t.Fatal(err)
				}
				if want := tc.perJob * len(set.jobs); len(files) != want {
					t.Errorf("%d %s files in %s, want %d", len(files), tc.leftover, dir, want)
				}
			}
		})
	}
}

// seedUnrestorable files a journal for job under name in dir that names
// the job (engine, ref, technique, config) but whose snapshot has its
// commit ring cut to one entry, so restoring it fails with
// cpu.ErrSnapshotMismatch.
func seedUnrestorable(t *testing.T, dir string, job experiments.Job, name string) {
	t.Helper()
	errStop := errors.New("first checkpoint taken")
	var snap *cpu.Snapshot
	job.CheckpointEvery = 10_000
	job.Checkpoint = func(s *cpu.Snapshot) error { snap = s; return errStop }
	if _, err := experiments.Run(context.Background(), job); !errors.Is(err, errStop) {
		t.Fatalf("seeding run returned %v", err)
	}
	snap.CommitRing = snap.CommitRing[:1]
	ref, err := refOf(job.Spec)
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := &checkpoint.State{Engine: api.EngineVersion, Ref: ref, Technique: string(job.Tech), Config: job.Cfg, Core: *snap}
	if err := store.Save(name, st); err != nil {
		t.Fatal(err)
	}
}

// Flags parse wherever they stand: before, between and after the names.
func TestParseArgsAnywhere(t *testing.T) {
	fs := flag.NewFlagSet("dvrbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	quick := fs.Bool("quick", false, "")
	jsonOut := fs.Bool("json", false, "")
	server := fs.String("server", "", "")
	names, err := parseArgs(fs, []string{"-quick", "fig7", "-json", "ablation", "-server", "http://127.0.0.1:1", "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"fig7", "ablation", "fig2"}; !slices.Equal(names, want) {
		t.Errorf("names = %q, want %q", names, want)
	}
	if !*quick || !*jsonOut || *server != "http://127.0.0.1:1" {
		t.Errorf("flags: quick=%v json=%v server=%q", *quick, *jsonOut, *server)
	}
	if _, err := parseArgs(fs, []string{"fig7", "-bogus"}); err == nil {
		t.Error("an unknown flag after a name parsed")
	}
}

// Per-job file names are <bench>-<tech> where that is unique, so the
// trace-smoke job's traces/*-dvr.json glob keeps matching Figure 7, and
// carry the job's index where a figure repeats the pair.
func TestCellNames(t *testing.T) {
	quick := experiments.QuickSuite()
	cfg := cpu.DefaultConfig()
	sp := quick.GAP[0]
	jobs := []experiments.Job{
		{Spec: sp, Tech: experiments.TechOoO, Cfg: cfg},
		{Spec: sp, Tech: experiments.TechDVR, Cfg: cfg.WithROB(128)},
		{Spec: sp, Tech: experiments.TechDVR, Cfg: cfg.WithROB(512)},
	}
	want := []string{sp.Name + "-ooo", sp.Name + "-dvr-1", sp.Name + "-dvr-2"}
	if got := cellNames(jobs); !slices.Equal(got, want) {
		t.Errorf("cellNames = %q, want %q", got, want)
	}
}

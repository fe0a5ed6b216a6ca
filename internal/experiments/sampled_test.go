package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"dvr/internal/cpu"
	"dvr/internal/trace"
	"dvr/internal/workloads"
)

// RunSampled must be deterministic: two projections of the same cell are
// byte-identical on the canonical result, provenance included.
func TestRunSampledDeterministic(t *testing.T) {
	sp := quickSpec()
	cfg := cpu.DefaultConfig()
	run := func() cpu.Result {
		res, err := RunSampled(context.Background(), sp, TechDVR, cfg, SampleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	a, _ := json.Marshal(r1.Canonical())
	b, _ := json.Marshal(r2.Canonical())
	if !bytes.Equal(a, b) {
		t.Errorf("sampled runs not byte-identical:\n%s\n%s", a, b)
	}
	sp2 := r1.Sampled
	if sp2 == nil {
		t.Fatal("no Sampled provenance")
	}
	if sp2.Phases == 0 || sp2.Windows == 0 || sp2.SimulatedInsts == 0 {
		t.Errorf("implausible provenance: %+v", sp2)
	}
	if sp2.SimulatedInsts >= sp2.ProfiledInsts {
		t.Errorf("sampling saved nothing: simulated %d of %d profiled insts",
			sp2.SimulatedInsts, sp2.ProfiledInsts)
	}
	if r1.Name != sp.Name || r1.Technique != string(TechDVR) {
		t.Errorf("result labels wrong: %q/%q", r1.Name, r1.Technique)
	}
}

// A sampled job is validated the way an exact one is, and refused when it
// also asks for resume, checkpoints or tracing, which observe one
// continuous run a sampled projection does not have.
func TestRunSampledRejectsBadInputs(t *testing.T) {
	sp := quickSpec()
	cfg := cpu.DefaultConfig()
	if _, err := RunSampled(context.Background(), sp, Technique("warp-drive"), cfg, SampleOptions{}); err == nil {
		t.Error("unknown technique accepted")
	}
	bad := cfg
	bad.ROBSize = 0
	if _, err := RunSampled(context.Background(), sp, TechOoO, bad, SampleOptions{}); err == nil {
		t.Error("invalid config accepted")
	}
	for name, opts := range map[string]JobOpts{
		"resume":     {Resume: &cpu.Snapshot{}},
		"checkpoint": {CheckpointEvery: 1000, Checkpoint: func(*cpu.Snapshot) error { return nil }},
		"trace":      {Trace: trace.New(trace.Config{IntervalEvery: 1000})},
	} {
		job := Job{Spec: sp, Tech: TechOoO, Cfg: cfg, JobOpts: opts, Sample: &SampleOptions{}}
		if _, err := Run(context.Background(), job); !errors.Is(err, errSampledDurable) {
			t.Errorf("sampled job with %s: got %v, want errSampledDurable", name, err)
		}
	}
}

// MatrixSampled fills every cell with a sampled projection and matches
// RunSampled cell-for-cell (the shared per-spec plan, its once-trained
// predictor and the scheduler's interleaving must not leak state across
// techniques), whatever the worker count.
func TestMatrixSampledMatchesRunSampled(t *testing.T) {
	q := QuickSuite()
	specs := []workloads.Spec{q.GAP[1], q.GAP[3], q.HPCDB[0]}
	cfg := cpu.DefaultConfig()
	techs := append([]Technique{TechOoO}, AllTechniques...)
	solo := make(map[string][]byte)
	for _, sp := range specs {
		for _, tech := range techs {
			res, err := RunSampled(context.Background(), sp, tech, cfg, SampleOptions{})
			if err != nil {
				t.Fatal(err)
			}
			solo[sp.Name+"/"+string(tech)], _ = json.Marshal(res.Canonical())
		}
	}
	for _, procs := range []int{1, 2, 8} {
		setProcs(t, procs)
		m, err := MatrixSampled(context.Background(), specs, techs, cfg, SampleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != len(specs) {
			t.Fatalf("GOMAXPROCS %d: matrix has %d rows, want %d", procs, len(m), len(specs))
		}
		for _, sp := range specs {
			if len(m[sp.Name]) != len(techs) {
				t.Fatalf("GOMAXPROCS %d: row %s has %d cells, want %d", procs, sp.Name, len(m[sp.Name]), len(techs))
			}
			for _, tech := range techs {
				cell := m[sp.Name][tech]
				if cell.Sampled == nil {
					t.Fatalf("%s/%s cell missing Sampled provenance", sp.Name, tech)
				}
				got, _ := json.Marshal(cell.Canonical())
				if want := solo[sp.Name+"/"+string(tech)]; !bytes.Equal(got, want) {
					t.Errorf("GOMAXPROCS %d, %s/%s: matrix cell differs from solo projection:\n%s\n%s", procs, sp.Name, tech, got, want)
				}
			}
		}
	}
}

// Cancelling the context while plans are being built and replayed ends
// the matrix with the context's error.
func TestMatrixSampledCancelMidMatrix(t *testing.T) {
	setProcs(t, 2)
	q := QuickSuite()
	specs := []workloads.Spec{q.GAP[1], q.GAP[3], q.HPCDB[0]}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	build := specs[1].Build
	specs[1].Build = func() *workloads.Workload {
		cancel()
		return build()
	}
	var err error
	within(t, func() {
		_, err = MatrixSampled(ctx, specs, AllTechniques, cpu.DefaultConfig(), SampleOptions{})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// A sampled projection of a quick cell lands near its exact counterpart.
// The tight suite-level bound lives in `dvrbench fidelity`; this guards
// the plumbing (scaling, weights, warmup deltas) against gross breakage.
func TestRunSampledNearExact(t *testing.T) {
	sp := quickSpec()
	cfg := cpu.DefaultConfig()
	exact, err := RunE(context.Background(), sp, TechOoO, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := RunSampled(context.Background(), sp, TechOoO, cfg, SampleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Instructions != exact.Instructions {
		t.Errorf("projected instruction total %d, exact %d", sampled.Instructions, exact.Instructions)
	}
	rel := float64(int64(sampled.Cycles)-int64(exact.Cycles)) / float64(exact.Cycles)
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.10 {
		t.Errorf("projected cycles %d off exact %d by %.1f%%", sampled.Cycles, exact.Cycles, 100*rel)
	}
}

// TestSampledFig7Golden pins the projected cycles of every quick Figure 7
// cell under default SampleOptions, the sampled twin of the Figure 7
// golden. At the quick ROI the plans hold both kinds of segment: ones after
// a gap, which restore the plan's cache and predictor states and fork a
// frozen boundary, and ones directly after the previous timed window, which
// keep running on the state they carry. A change to how a plan is built
// that is meant to leave sampled results alone proves it here.
func TestSampledFig7Golden(t *testing.T) {
	jobs := figure(t, "fig7").Jobs(QuickSuite(), cpu.DefaultConfig())
	for i := range jobs {
		jobs[i].Sample = &SampleOptions{}
	}
	res, err := RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]goldenCell, len(res))
	for i, j := range jobs {
		if res[i].Sampled == nil {
			t.Fatalf("%s/%s: no sampled provenance", j.Spec.Name, j.Tech)
		}
		cells[i] = goldenCell{j.Spec.Name + " " + string(j.Tech), res[i]}
	}
	checkGolden(t, "fig7sampled", "bench technique", cells)
}

package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"dvr/internal/cpu"
	"dvr/internal/graphgen"
	"dvr/internal/stats"
	"dvr/internal/workloads"
)

func quickSpec() workloads.Spec {
	g := graphgen.Kronecker(12, 8, 7)
	return workloads.Spec{
		Name:  "bfs_t",
		Build: func() *workloads.Workload { return workloads.BFS(g) },
		ROI:   30_000,
	}
}

// runT runs the plain job and fails the test on error.
func runT(t testing.TB, spec workloads.Spec, tech Technique, cfg cpu.Config) cpu.Result {
	t.Helper()
	res, err := Run(context.Background(), Job{Spec: spec, Tech: tech, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunAllPreservesOrder(t *testing.T) {
	sp := quickSpec()
	cfg := cpu.DefaultConfig()
	res, err := RunAll(context.Background(), []Job{
		{Spec: sp, Tech: TechOoO, Cfg: cfg},
		{Spec: sp, Tech: TechDVR, Cfg: cfg},
		{Spec: sp, Tech: TechOoO, Cfg: cfg.WithROB(128)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].Technique != "ooo" || res[1].Technique != "dvr" || res[2].Technique != "ooo" {
		t.Errorf("order not preserved: %s %s %s", res[0].Technique, res[1].Technique, res[2].Technique)
	}
}

func TestRunAllMatchesSequentialRun(t *testing.T) {
	sp := quickSpec()
	cfg := cpu.DefaultConfig()
	seq := runT(t, sp, TechDVR, cfg)
	par, err := RunAll(context.Background(), []Job{{Spec: sp, Tech: TechDVR, Cfg: cfg}})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Cycles != par[0].Cycles || seq.Instructions != par[0].Instructions {
		t.Errorf("parallel run differs: %d vs %d cycles", par[0].Cycles, seq.Cycles)
	}
}

func TestMatrixShape(t *testing.T) {
	sp := quickSpec()
	m, err := MatrixE(context.Background(), []workloads.Spec{sp}, []Technique{TechOoO, TechVR}, cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1 || len(m[sp.Name]) != 2 {
		t.Fatalf("matrix shape wrong: %v", m)
	}
}

func TestSpeedup(t *testing.T) {
	var a, b cpu.Result
	a.Instructions, a.Cycles = 1000, 1000
	b.Instructions, b.Cycles = 1000, 500
	if got := Speedup(a, b); got != 2 {
		t.Errorf("speedup = %f", got)
	}
	// A zero-IPC baseline marks a degenerate run: the sentinel is NaN (not
	// a silent 0) and it must propagate through the h-mean summary rather
	// than skew it.
	if got := Speedup(cpu.Result{}, b); !math.IsNaN(got) {
		t.Errorf("zero-baseline speedup = %f, want NaN", got)
	}
	if got := stats.HarmonicMean([]float64{2, Speedup(cpu.Result{}, b), 2}); !math.IsNaN(got) {
		t.Errorf("h-mean with degenerate entry = %f, want NaN", got)
	}
}

func TestTable1ContainsKeyRows(t *testing.T) {
	out := Table1(cpu.DefaultConfig())
	for _, want := range []string{"ROB size          350", "5-wide", "24 MSHRs", "1139 bytes"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestTable2Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all five inputs")
	}
	rows, render := Table2(cpu.DefaultConfig(), 20_000)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.NodesK <= 0 || r.EdgesK <= 0 {
			t.Errorf("%s: empty graph", r.Input)
		}
		if r.LLCMPKI <= 1 {
			t.Errorf("%s: LLC MPKI %.2f; inputs must miss the LLC", r.Input, r.LLCMPKI)
		}
	}
	if !strings.Contains(render(), "Table 2") {
		t.Error("render missing title")
	}
}

func TestQuickSuiteShape(t *testing.T) {
	s := QuickSuite()
	if len(s.GAP) != 5 || len(s.HPCDB) != 8 {
		t.Fatalf("quick suite: gap=%d hpcdb=%d", len(s.GAP), len(s.HPCDB))
	}
	if len(s.All()) != 13 {
		t.Errorf("All() = %d", len(s.All()))
	}
}

func TestAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("several simulations")
	}
	specs := []workloads.Spec{quickSpec()}
	cfg := cpu.DefaultConfig()

	rows, render := AblationLanes(specs, cfg)
	t.Log("\n" + render())
	if rows[0].Speedups["dvr-128"] < rows[0].Speedups["dvr-32"]*0.8 {
		t.Errorf("128 lanes (%.2f) should not badly lose to 32 lanes (%.2f)",
			rows[0].Speedups["dvr-128"], rows[0].Speedups["dvr-32"])
	}

	// Reconvergence pays off on kernels with loads down divergent paths
	// (kangaroo loads from one of two arrays); on bfs the divergent paths
	// hold only stores, so first-lane is cheaper there (see EXPERIMENTS.md).
	kang := []workloads.Spec{kangarooSpec()}
	rrows, rrender := AblationReconvergence(kang, cfg)
	t.Log("\n" + rrender())
	// Reconvergence serializes the divergent paths (the SIMT cost), so it
	// may trail first-lane slightly when episodes are plentiful; it must
	// not collapse.
	if rrows[0].Speedups["reconverge"] < rrows[0].Speedups["first-lane"]*0.85 {
		t.Errorf("reconvergence (%.2f) badly loses to first-lane (%.2f) on a divergent-load kernel",
			rrows[0].Speedups["reconverge"], rrows[0].Speedups["first-lane"])
	}

	_, trender := AblationTimeout(specs, cfg)
	t.Log("\n" + trender())
	_, mrender := AblationMSHR(specs, cfg)
	t.Log("\n" + mrender())
	_, brender := AblationBandwidth(specs, cfg)
	t.Log("\n" + brender())
}

// kangarooSpec is the divergent-load kernel of the reconvergence ablation.
func kangarooSpec() workloads.Spec {
	return workloads.Spec{Name: "kangaroo_t", Build: workloads.Kangaroo, ROI: 30_000}
}

// TestAblationGolden pins every cell the five ablations run on the specs
// TestAblationsQuick uses: DVR variants (lanes, divergence handling,
// timeout) the figures never run, and DVR and its baseline under MSHR
// counts and DRAM bandwidths the figures never configure.
func TestAblationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("several simulations")
	}
	cfg := cpu.DefaultConfig()
	bfs, kang := []workloads.Spec{quickSpec()}, []workloads.Spec{kangarooSpec()}
	var cells []goldenCell
	for _, a := range []struct {
		name  string
		specs []workloads.Spec
		cols  []ablationCol
	}{
		{"lanes", bfs, laneCols(cfg)},
		{"reconvergence", kang, reconvergenceCols(cfg)},
		{"timeout", bfs, timeoutCols(cfg)},
		{"mshr", bfs, mshrCols(cfg)},
		{"bandwidth", bfs, bandwidthCols(cfg)},
	} {
		jobs := ablationJobs(a.specs, a.cols)
		res, err := RunAll(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range jobs {
			cells = append(cells, goldenCell{a.name + " " + cfgLabel(j.Spec.Name, j.Tech, j.Cfg), res[i]})
		}
	}
	checkGolden(t, "ablation", "ablation "+cellLabels, cells)
}

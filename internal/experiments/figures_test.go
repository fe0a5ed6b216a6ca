package experiments

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvr/internal/cpu"
	"dvr/internal/graphgen"
	"dvr/internal/stats"
	"dvr/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// goldenCell is one line of a golden file: a label naming the cell and
// the cell's result.
type goldenCell struct {
	label string
	res   cpu.Result
}

// checkGolden compares every cell's committed instructions and cycles
// against testdata/<name>_quick.golden, so a change that is meant to leave
// exact timing alone (a cache layout, a calendar, a faster interpreter, a
// new run path) proves it in tier-1. header names the label's fields. A
// change that moves cycles on purpose regenerates the files with
// `go test ./internal/experiments -update` and says why in its description.
func checkGolden(t *testing.T, name, header string, cells []goldenCell) {
	t.Helper()
	path := filepath.Join("testdata", name+"_quick.golden")
	var b strings.Builder
	fmt.Fprintf(&b, "# %s instructions cycles\n", header)
	for _, c := range cells {
		fmt.Fprintf(&b, "%s %d %d\n", c.label, c.res.Instructions, c.res.Cycles)
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
		t.Fatalf("%s: this run has %d lines, the golden %d", path, len(got), len(golden))
	}
	for i := range got {
		if got[i] != golden[i] {
			t.Errorf("quick %s cell moved: got %q, golden has %q", name, got[i], golden[i])
		}
	}
}

// matrixCells lists a matrix's cells spec-major, labelled "bench technique".
func matrixCells(specs []workloads.Spec, techs []Technique, m map[string]map[Technique]cpu.Result) []goldenCell {
	var cells []goldenCell
	for _, sp := range specs {
		for _, tech := range techs {
			cells = append(cells, goldenCell{sp.Name + " " + string(tech), m[sp.Name][tech]})
		}
	}
	return cells
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
	m, err := MatrixE(context.Background(), specs, techs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7", "bench technique", matrixCells(specs, techs, m))
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

	// Figure 8's breakdown variants run Options toggles Figure 7 never
	// enters.
	techs8 := append([]Technique{TechOoO}, Fig8Variants...)
	m8, err := MatrixE(context.Background(), specs, techs8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig8", "bench technique", matrixCells(specs, techs8, m8))
	_, render8 := Fig8FromMatrix(specs, m8)
	t.Log("\n" + render8())

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

// robSweeps are the sweeps of Figure 2 (OoO and VR, back end fixed) and
// Figure 12 (DVR, back end scaled with the ROB).
var robSweeps = []struct {
	tech  Technique
	scale bool
}{{TechOoO, false}, {TechVR, false}, {TechDVR, true}}

// cfgLabel names a cell by benchmark, technique and the knobs the ROB
// sweeps and the ablations vary.
func cfgLabel(name string, tech Technique, cfg cpu.Config) string {
	return fmt.Sprintf("%s %s %d %d %d %d %d %d", name, tech,
		cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize, cfg.Mem.MSHRs, cfg.Mem.DRAMCyclesPerLine)
}

// cellLabels is the golden header matching cfgLabel.
const cellLabels = "bench technique rob iq lq sq mshrs bw"

// TestROBSweepGolden pins every cell of the Figure 2 and Figure 12 ROB
// sweeps on the quick GAP set: each ROBSizes entry with the back end fixed
// and scaled, which the Figure 7 golden never configures.
func TestROBSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("90 quick simulations")
	}
	cfg := cpu.DefaultConfig()
	var jobs []Job
	for _, sw := range robSweeps {
		jobs = append(jobs, robSweepJobs(QuickSuite().GAP, sw.tech, cfg, sw.scale)...)
	}
	res, err := RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	golden := make([]goldenCell, len(jobs))
	for i, j := range jobs {
		golden[i] = goldenCell{cfgLabel(j.Spec.Name, j.Tech, j.Cfg), res[i]}
	}
	checkGolden(t, "robsweep", cellLabels, golden)
}

// TestCCLargeInput verifies DVR does not regress connected components on
// large power-law inputs (both edge endpoints' label loads must be
// covered via co-stride vectorization).
func TestCCLargeInput(t *testing.T) {
	g := graphgen.PowerLaw(60_000, 900_000, 2.3, 2)
	spec := workloads.Spec{Name: "cc_ljn", Build: func() *workloads.Workload { return workloads.CC(g) }, ROI: 60_000}
	cfg := cpu.DefaultConfig()
	if s := Speedup(runT(t, spec, TechOoO, cfg), runT(t, spec, TechDVR, cfg)); s < 0.95 {
		t.Errorf("DVR regresses cc on a large input: %.2fx", s)
	}
}

package experiments

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dvr/internal/cpu"
	"dvr/internal/graphgen"
	"dvr/internal/mem"
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
//
// Every exact cell (not a sampled projection) must also obey the
// statistics' conservation laws (checkConservation).
func checkGolden(t *testing.T, name, header string, cells []goldenCell) {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "# %s instructions cycles\n", header)
	for _, c := range cells {
		fmt.Fprintf(&b, "%s %d %d\n", c.label, c.res.Instructions, c.res.Cycles)
		if c.res.Sampled == nil {
			checkConservation(t, name+" "+c.label, c.res)
		}
	}
	matchGolden(t, name+"_quick.golden", b.String())
}

// checkConservation asserts the laws every exact result obeys: each demand
// access is satisfied at exactly one level or merged into an in-flight
// miss; the demand accesses are the committed loads and stores; and no
// prefetch is both useful, late or evicted unused more than once, so
// those outcomes never outnumber the prefetches issued.
func checkConservation(t *testing.T, label string, r cpu.Result) {
	t.Helper()
	m := r.Mem
	var satisfied uint64
	for _, n := range m.DemandHits {
		satisfied += n
	}
	if got, want := satisfied+m.DemandMerged, m.Accesses[mem.SrcDemand]; got != want {
		t.Errorf("%s: demand hits %v + merged %d = %d, demand accesses %d", label, m.DemandHits, m.DemandMerged, got, want)
	}
	if got, want := m.Accesses[mem.SrcDemand], r.Loads+r.Stores; got != want {
		t.Errorf("%s: demand accesses %d, loads %d + stores %d = %d", label, got, r.Loads, r.Stores, want)
	}
	if out, issued := m.TotalPrefUseful()+m.TotalPrefLate()+m.TotalPrefUnusedEvict(), m.TotalPrefIssued(); out > issued {
		t.Errorf("%s: prefetches useful %d + late %d + evicted unused %d = %d > issued %d",
			label, m.TotalPrefUseful(), m.TotalPrefLate(), m.TotalPrefUnusedEvict(), out, issued)
	}
}

// matchGolden compares got line by line against testdata/<file>, or
// rewrites the file under -update.
func matchGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, golden := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(golden) {
		t.Fatalf("%s: this run has %d lines, the golden %d", path, len(gotLines), len(golden))
	}
	for i := range gotLines {
		if gotLines[i] != golden[i] {
			t.Errorf("%s line %d moved:\n got %s\nwant %s", path, i+1, gotLines[i], golden[i])
		}
	}
}

// figure returns the registered figure called name.
func figure(t testing.TB, name string) Figure {
	t.Helper()
	for _, f := range slices.Concat(Figures, Studies) {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no figure %q registered", name)
	return Figure{}
}

// render runs f's jobs on s under cfg and returns its tables.
func render(t testing.TB, f Figure, s Suite, cfg cpu.Config) []Table {
	t.Helper()
	jobs := f.Jobs(s, cfg)
	res, err := RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	tables := f.Tables(jobs, res)
	for _, tab := range tables {
		t.Log("\n" + tab.String())
	}
	return tables
}

// cell returns the number in tab's row labelled row and column col.
func cell(t testing.TB, tab Table, row, col string) float64 {
	t.Helper()
	if c := slices.Index(tab.Columns, col); c > 0 {
		for _, r := range tab.Rows {
			if r[0] == row {
				return r[c].(float64)
			}
		}
	}
	t.Fatalf("%s: no cell (%s, %s)", tab.Title, row, col)
	return 0
}

// TestFiguresQuick renders every registered figure at quick scale, pins
// the Figure 7 and 8 cells in goldens, and checks the paper's qualitative
// claims hold: DVR beats VR and the baseline, and VR's advantage shrinks
// with ROB size while DVR's holds.
func TestFiguresQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute at full scale; quick scale still heavy for -short")
	}
	suite, cfg := QuickSuite(), cpu.DefaultConfig()

	// One RunAll over every figure's jobs, so the figures share built images.
	figs := slices.Concat(Figures, Studies)
	jobs := make([][]Job, len(figs))
	var all []Job
	for i, f := range figs {
		jobs[i] = f.Jobs(suite, cfg)
		all = append(all, jobs[i]...)
	}
	res, err := RunAll(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	tables := make(map[string][]Table)
	for i, f := range figs {
		r := res[:len(jobs[i])]
		res = res[len(jobs[i]):]
		tables[f.Name] = f.Tables(jobs[i], r)
		for _, tab := range tables[f.Name] {
			t.Log("\n" + tab.String())
		}
		if f.Name == "fig7" || f.Name == "fig8" {
			cells := make([]goldenCell, len(r))
			for k, j := range jobs[i] {
				cells[k] = goldenCell{j.Spec.Name + " " + string(j.Tech), r[k]}
			}
			checkGolden(t, f.Name, "bench technique", cells)
		}
	}

	fig7 := tables["fig7"][0]
	dvrHM, vrHM := cell(t, fig7, "h-mean", "dvr"), cell(t, fig7, "h-mean", "vr")
	if dvrHM <= 1.2 {
		t.Errorf("DVR h-mean speedup %.2f, want > 1.2", dvrHM)
	}
	if dvrHM <= vrHM {
		t.Errorf("DVR h-mean %.2f not above VR h-mean %.2f", dvrHM, vrHM)
	}
	// Figure 2's claim: a larger ROB makes VR's full-ROB trigger rarer, so
	// its gain decays.
	vr := tables["fig2"][1]
	if v128, v512 := cell(t, vr, "h-mean", "ROB128"), cell(t, vr, "h-mean", "ROB512"); v128 <= v512 {
		t.Errorf("VR speedup does not decay with ROB growth: %.3f@128 vs %.3f@512", v128, v512)
	}
	dvr := tables["fig12"][0]
	if d128, d512 := cell(t, dvr, "h-mean", "ROB128"), cell(t, dvr, "h-mean", "ROB512"); d512 < d128*0.9 {
		t.Errorf("DVR speedup collapses with ROB growth: %.2f@128 vs %.2f@512", d128, d512)
	}
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

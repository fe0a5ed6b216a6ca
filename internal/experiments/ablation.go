package experiments

import (
	"context"
	"fmt"
	"reflect"

	"dvr/internal/cpu"
	"dvr/internal/stats"
	"dvr/internal/workloads"
)

// AblationRow is one benchmark's speedup under a set of named DVR
// configurations.
type AblationRow struct {
	Bench    string
	Speedups map[string]float64
}

// ablationCol is one column of an ablation table: tech under cfg, as a
// speedup over the OoO baseline under the same cfg.
type ablationCol struct {
	label string
	tech  Technique
	cfg   cpu.Config
}

// sharesBaseline reports whether column i runs under the previous
// column's config, and so is normalized to the same OoO run.
func sharesBaseline(cols []ablationCol, i int) bool {
	return i > 0 && reflect.DeepEqual(cols[i].cfg, cols[i-1].cfg)
}

// ablationJobs lists, per spec, every column's job, each preceded by its
// OoO baseline unless it shares the previous column's.
func ablationJobs(specs []workloads.Spec, cols []ablationCol) []Job {
	var jobs []Job
	for _, sp := range specs {
		for i, c := range cols {
			if !sharesBaseline(cols, i) {
				jobs = append(jobs, Job{Spec: sp, Tech: TechOoO, Cfg: c.cfg})
			}
			jobs = append(jobs, Job{Spec: sp, Tech: c.tech, Cfg: c.cfg})
		}
	}
	return jobs
}

// ablation runs the columns over specs and renders them under title.
func ablation(title string, specs []workloads.Spec, cols []ablationCol) ([]AblationRow, func() string) {
	res := must(RunAll(context.Background(), ablationJobs(specs, cols)))
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.label
	}
	rows := make([]AblationRow, len(specs))
	for k, sp := range specs {
		rows[k] = AblationRow{Bench: sp.Name, Speedups: make(map[string]float64, len(cols))}
		var base cpu.Result
		for i, c := range cols {
			if !sharesBaseline(cols, i) {
				base, res = res[0], res[1:]
			}
			rows[k].Speedups[c.label], res = Speedup(base, res[0]), res[1:]
		}
	}
	return rows, func() string { return ablationTable(title, names, rows) }
}

// AblationLanes sweeps DVR's maximum vectorization degree. The paper (§6.1)
// argues 128 lanes is sometimes insufficient on a large core (NAS-CG,
// NAS-IS) and that 256-element DVR would close the Oracle gap at the cost
// of a larger VRAT; 32 lanes shows the cost of under-vectorizing.
func AblationLanes(specs []workloads.Spec, cfg cpu.Config) ([]AblationRow, func() string) {
	return ablation("Ablation: DVR vectorization degree (speedup vs OoO)", specs, laneCols(cfg))
}

func laneCols(cfg cpu.Config) []ablationCol {
	return []ablationCol{{"dvr-32", "dvr-32", cfg}, {"dvr-64", "dvr-64", cfg}, {"dvr-128", TechDVR, cfg}, {"dvr-256", "dvr-256", cfg}}
}

// AblationReconvergence isolates the reconvergence stack: full DVR vs DVR
// with first-lane (VR-style) divergence handling. Divergent workloads
// (bfs, bc, sssp, kangaroo) lose coverage without it.
func AblationReconvergence(specs []workloads.Spec, cfg cpu.Config) ([]AblationRow, func() string) {
	return ablation("Ablation: divergence handling (speedup vs OoO)", specs, reconvergenceCols(cfg))
}

func reconvergenceCols(cfg cpu.Config) []ablationCol {
	return []ablationCol{{"first-lane", "dvr-first-lane", cfg}, {"reconverge", TechDVR, cfg}}
}

// AblationTimeout sweeps the subthread's instruction timeout (the paper
// uses 200).
func AblationTimeout(specs []workloads.Spec, cfg cpu.Config) ([]AblationRow, func() string) {
	return ablation("Ablation: subthread instruction timeout (speedup vs OoO)", specs, timeoutCols(cfg))
}

func timeoutCols(cfg cpu.Config) []ablationCol {
	return []ablationCol{{"to-50", "dvr-to-50", cfg}, {"to-200", TechDVR, cfg}, {"to-800", "dvr-to-800", cfg}}
}

// AblationMSHR sweeps the L1-D MSHR count, the structure that bounds the
// memory-level parallelism every technique can expose.
func AblationMSHR(specs []workloads.Spec, cfg cpu.Config) ([]AblationRow, func() string) {
	return ablation("Ablation: MSHR count (DVR speedup vs same-MSHR OoO)", specs, mshrCols(cfg))
}

func mshrCols(cfg cpu.Config) []ablationCol {
	var cols []ablationCol
	for _, n := range []int{12, 24, 48} {
		c := cfg
		c.Mem.MSHRs = n
		cols = append(cols, ablationCol{fmt.Sprintf("mshr-%d", n), TechDVR, c})
	}
	return cols
}

// AblationBandwidth sweeps the DRAM bandwidth (cycles per 64 B line; Table
// 1 uses 5 = 51.2 GB/s at 4 GHz). DVR converts latency-boundedness into
// bandwidth-boundedness, so its gain shrinks when bandwidth is scarce.
func AblationBandwidth(specs []workloads.Spec, cfg cpu.Config) ([]AblationRow, func() string) {
	return ablation("Ablation: DRAM bandwidth (DVR speedup vs same-bandwidth OoO)", specs, bandwidthCols(cfg))
}

func bandwidthCols(cfg cpu.Config) []ablationCol {
	var cols []ablationCol
	for _, bw := range []struct {
		label string
		cpl   uint64
	}{{"bw-2x", 2}, {"bw-1x", 5}, {"bw-half", 10}} {
		c := cfg
		c.Mem.DRAMCyclesPerLine = bw.cpl
		cols = append(cols, ablationCol{bw.label, TechDVR, c})
	}
	return cols
}

func ablationTable(title string, names []string, rows []AblationRow) string {
	cols := append([]string{"bench"}, names...)
	t := stats.NewTable(title, cols...)
	per := make(map[string][]float64)
	for _, r := range rows {
		cells := []interface{}{r.Bench}
		for _, n := range names {
			cells = append(cells, r.Speedups[n])
			per[n] = append(per[n], r.Speedups[n])
		}
		t.AddRow(cells...)
	}
	hm := []interface{}{"h-mean"}
	for _, n := range names {
		hm = append(hm, stats.HarmonicMean(per[n]))
	}
	t.AddRow(hm...)
	return t.String()
}

package experiments

import (
	"dvr/internal/cpu"
	"dvr/internal/stats"
	"dvr/internal/workloads"
)

// ablationCol is one column of an ablation table: tech under the figure's
// config as changed by set (nil: unchanged), as a speedup over the OoO
// baseline under the same config.
type ablationCol struct {
	label string
	tech  Technique
	set   func(*cpu.Config)
}

func mshrs(n int) func(*cpu.Config) { return func(c *cpu.Config) { c.Mem.MSHRs = n } }

func dramCyclesPerLine(n uint64) func(*cpu.Config) {
	return func(c *cpu.Config) { c.Mem.DRAMCyclesPerLine = n }
}

// ablations are the five tables of `dvrbench ablation`, in print order.
var ablations = []struct {
	title string
	cols  []ablationCol
}{
	// DVR's maximum vectorization degree. The paper (§6.1) argues 128 lanes
	// is sometimes insufficient on a large core (NAS-CG, NAS-IS) and that
	// 256-element DVR would close the Oracle gap at the cost of a larger
	// VRAT; 32 lanes shows the cost of under-vectorizing.
	{"Ablation: DVR vectorization degree (speedup vs OoO)",
		[]ablationCol{{"dvr-32", "dvr-32", nil}, {"dvr-64", "dvr-64", nil}, {"dvr-128", TechDVR, nil}, {"dvr-256", "dvr-256", nil}}},
	// The reconvergence stack: full DVR vs DVR with first-lane (VR-style)
	// divergence handling. Divergent workloads (bfs, bc, sssp, kangaroo)
	// lose coverage without it.
	{"Ablation: divergence handling (speedup vs OoO)",
		[]ablationCol{{"first-lane", "dvr-first-lane", nil}, {"reconverge", TechDVR, nil}}},
	// The subthread's instruction timeout (the paper uses 200).
	{"Ablation: subthread instruction timeout (speedup vs OoO)",
		[]ablationCol{{"to-50", "dvr-to-50", nil}, {"to-200", TechDVR, nil}, {"to-800", "dvr-to-800", nil}}},
	// The L1-D MSHR count, the structure that bounds the memory-level
	// parallelism every technique can expose.
	{"Ablation: MSHR count (DVR speedup vs same-MSHR OoO)",
		[]ablationCol{{"mshr-12", TechDVR, mshrs(12)}, {"mshr-24", TechDVR, mshrs(24)}, {"mshr-48", TechDVR, mshrs(48)}}},
	// DRAM bandwidth in cycles per 64 B line (Table 1 uses 5 = 51.2 GB/s
	// at 4 GHz). DVR converts latency-boundedness into bandwidth-
	// boundedness, so its gain shrinks when bandwidth is scarce.
	{"Ablation: DRAM bandwidth (DVR speedup vs same-bandwidth OoO)",
		[]ablationCol{{"bw-2x", TechDVR, dramCyclesPerLine(2)}, {"bw-1x", TechDVR, dramCyclesPerLine(5)}, {"bw-half", TechDVR, dramCyclesPerLine(10)}}},
}

// sharesBaseline reports whether column i runs under the previous
// column's config, and so is normalized to the same OoO run.
func sharesBaseline(cols []ablationCol, i int) bool {
	return i > 0 && cols[i].set == nil && cols[i-1].set == nil
}

// ablationJobs lists, per spec, every column's job, each preceded by its
// OoO baseline unless it shares the previous column's.
func ablationJobs(specs []workloads.Spec, cols []ablationCol, cfg cpu.Config) []Job {
	var jobs []Job
	for _, sp := range specs {
		for i, col := range cols {
			c := cfg
			if col.set != nil {
				col.set(&c)
			}
			if !sharesBaseline(cols, i) {
				jobs = append(jobs, Job{Spec: sp, Tech: TechOoO, Cfg: c})
			}
			jobs = append(jobs, Job{Spec: sp, Tech: col.tech, Cfg: c})
		}
	}
	return jobs
}

// ablationFigureJobs runs every ablation over the suite, or over its first
// four benchmarks at quick scale.
func ablationFigureJobs(s Suite, cfg cpu.Config) []Job {
	specs := s.All()
	if s.quick {
		specs = specs[:4]
	}
	var jobs []Job
	for _, a := range ablations {
		jobs = append(jobs, ablationJobs(specs, a.cols, cfg)...)
	}
	return jobs
}

// ablationTables renders one table per ablation from ablationFigureJobs'
// layout.
func ablationTables(jobs []Job, res []cpu.Result) []Table {
	perSpec := 0 // jobs per benchmark, summed over the ablations
	for _, a := range ablations {
		perSpec += len(ablationJobs([]workloads.Spec{{}}, a.cols, cpu.Config{}))
	}
	specs := len(jobs) / perSpec
	var tables []Table
	for _, a := range ablations {
		t := Table{Title: a.title, Columns: []string{"bench"}}
		for _, c := range a.cols {
			t.Columns = append(t.Columns, c.label)
		}
		for range specs {
			r := []any{jobs[0].Spec.Name}
			var base cpu.Result
			for i := range a.cols {
				if !sharesBaseline(a.cols, i) {
					base, jobs, res = res[0], jobs[1:], res[1:]
				}
				r = append(r, Speedup(base, res[0]))
				jobs, res = jobs[1:], res[1:]
			}
			t.Rows = append(t.Rows, r)
		}
		t.Rows = append(t.Rows, summary("h-mean", over(t.Rows, 1, 1+len(a.cols), stats.HarmonicMean)...))
		tables = append(tables, t)
	}
	return tables
}

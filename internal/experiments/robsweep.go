package experiments

import (
	"fmt"

	"dvr/internal/cpu"
	"dvr/internal/stats"
	"dvr/internal/workloads"
)

// ROBSizes is the sweep of Figure 2 and Figure 12.
var ROBSizes = []int{128, 192, 224, 350, 512}

// BaselineROB is the paper's baseline reorder-buffer size.
const BaselineROB = 350

// robSweepJobs lists, per spec, the OoO baseline at BaselineROB and then
// tech at each ROBSizes entry. scaleBackend also grows the issue/load/store
// queues in proportion (the paper's back-end-scaling sensitivity variant).
func robSweepJobs(specs []workloads.Spec, tech Technique, cfg cpu.Config, scaleBackend bool) []Job {
	var jobs []Job
	for _, sp := range specs {
		jobs = append(jobs, Job{Spec: sp, Tech: TechOoO, Cfg: cfg.WithROB(BaselineROB)})
		for _, rob := range ROBSizes {
			c := cfg.WithROB(rob)
			if scaleBackend {
				c = cfg.ScaleBackend(rob)
			}
			jobs = append(jobs, Job{Spec: sp, Tech: tech, Cfg: c})
		}
	}
	return jobs
}

// sweepTable renders a sweep laid out as robSweepJobs lists it: one
// speedup column per ROB size, normalized to the OoO baseline at 350
// entries, with stalls also the fraction of cycles dispatch was blocked on
// a full ROB, in percent; then the h-mean row (stall columns: their mean).
func sweepTable(title string, jobs []Job, res []cpu.Result, stalls bool) Table {
	n := len(ROBSizes)
	t := Table{Title: title, Columns: []string{"bench"}}
	for _, rob := range ROBSizes {
		t.Columns = append(t.Columns, fmt.Sprintf("ROB%d", rob))
	}
	if stalls {
		for _, rob := range ROBSizes {
			t.Columns = append(t.Columns, fmt.Sprintf("stall%%ROB%d", rob))
		}
	}
	for i := 0; i < len(res); i += 1 + n {
		r := []any{jobs[i].Spec.Name}
		for _, tr := range res[i+1 : i+1+n] {
			r = append(r, Speedup(res[i], tr))
		}
		if stalls {
			for _, tr := range res[i+1 : i+1+n] {
				r = append(r, 100*tr.ROBStallFrac())
			}
		}
		t.Rows = append(t.Rows, r)
	}
	hm := summary("h-mean", over(t.Rows, 1, 1+n, stats.HarmonicMean)...)
	if stalls {
		hm = append(hm, over(t.Rows, 1+n, 1+2*n, stats.Mean)...)
	}
	t.Rows = append(t.Rows, hm)
	return t
}

// fig2Jobs sweeps OoO and then VR over the GAP kernels of the suite's
// first input, back end fixed.
func fig2Jobs(s Suite, cfg cpu.Config) []Job {
	return append(robSweepJobs(s.kr(), TechOoO, cfg, false), robSweepJobs(s.kr(), TechVR, cfg, false)...)
}

// fig2 reproduces Figure 2: OoO and VR performance normalized to the
// 350-entry-ROB OoO baseline, and the full-ROB stall fraction, as a
// function of ROB size. The paper's headline: the stall fraction collapses
// as the ROB grows (51% -> 5% from 128 to 512 in the paper), and with it
// VR's trigger opportunity and speedup.
func fig2(jobs []Job, res []cpu.Result) []Table {
	h := len(jobs) / 2
	return []Table{
		sweepTable("Figure 2a: OoO IPC vs ROB size (normalized to OoO/350), with full-ROB stall %", jobs[:h], res[:h], true),
		sweepTable("Figure 2b: VR IPC vs ROB size (normalized to OoO/350)", jobs[h:], res[h:], false),
	}
}

// fig12Jobs sweeps DVR, back end scaled, over the GAP kernels of the
// suite's first input and the hpc-db benchmarks.
func fig12Jobs(s Suite, cfg cpu.Config) []Job {
	return robSweepJobs(append(s.kr(), s.HPCDB...), TechDVR, cfg, true)
}

// fig12 reproduces Figure 12: DVR's speedup as a function of ROB size,
// which unlike VR's holds up (the paper reports 1.9/2.2/2.2/2.4/2.5x for
// 128/192/224/350/512 with back-end scaling).
func fig12(jobs []Job, res []cpu.Result) []Table {
	return []Table{sweepTable("Figure 12: DVR IPC vs ROB size (normalized to OoO/350, back-end scaled)", jobs, res, false)}
}

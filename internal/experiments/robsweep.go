package experiments

import (
	"context"

	"dvr/internal/cpu"
	"dvr/internal/stats"
	"dvr/internal/workloads"
)

// ROBSizes is the sweep of Figure 2 and Figure 12.
var ROBSizes = []int{128, 192, 224, 350, 512}

// BaselineROB is the paper's baseline reorder-buffer size.
const BaselineROB = 350

// ROBSweepResult is one benchmark's row across the ROB sweep.
type ROBSweepResult struct {
	Bench string
	// Speedup[robSize] = IPC normalized to the same benchmark on the
	// 350-entry-ROB OoO baseline.
	Speedup map[int]float64
	// StallFrac[robSize] = fraction of cycles dispatch was blocked on a
	// full ROB.
	StallFrac map[int]float64
}

// ROBSweep runs one technique across the ROB sizes for every benchmark and
// normalizes to the OoO baseline at 350 entries. scaleBackend also grows
// the issue/load/store queues in proportion (the paper's back-end-scaling
// sensitivity variant).
func ROBSweep(specs []workloads.Spec, tech Technique, cfg cpu.Config, scaleBackend bool) []ROBSweepResult {
	res := must(RunAll(context.Background(), robSweepJobs(specs, tech, cfg, scaleBackend)))
	out := make([]ROBSweepResult, 0, len(specs))
	i := 0
	for _, sp := range specs {
		base := res[i]
		i++
		row := ROBSweepResult{
			Bench:     sp.Name,
			Speedup:   make(map[int]float64, len(ROBSizes)),
			StallFrac: make(map[int]float64, len(ROBSizes)),
		}
		for _, rob := range ROBSizes {
			r := res[i]
			i++
			row.Speedup[rob] = Speedup(base, r)
			row.StallFrac[rob] = r.ROBStallFrac()
		}
		out = append(out, row)
	}
	return out
}

// robSweepJobs lists, per spec, the OoO baseline at BaselineROB and then
// tech at each ROBSizes entry.
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

// sweepTable renders a sweep as a table with one speedup column per ROB
// size plus the h-mean row.
func sweepTable(title string, rows []ROBSweepResult, stalls bool) *stats.Table {
	cols := []string{"bench"}
	for _, rob := range ROBSizes {
		cols = append(cols, sprintROB(rob))
	}
	if stalls {
		for _, rob := range ROBSizes {
			cols = append(cols, "stall%"+sprintROB(rob))
		}
	}
	t := stats.NewTable(title, cols...)
	perROB := make(map[int][]float64)
	for _, r := range rows {
		cells := []interface{}{r.Bench}
		for _, rob := range ROBSizes {
			cells = append(cells, r.Speedup[rob])
			perROB[rob] = append(perROB[rob], r.Speedup[rob])
		}
		if stalls {
			for _, rob := range ROBSizes {
				cells = append(cells, 100*r.StallFrac[rob])
			}
		}
		t.AddRow(cells...)
	}
	hm := []interface{}{"h-mean"}
	for _, rob := range ROBSizes {
		hm = append(hm, stats.HarmonicMean(perROB[rob]))
	}
	if stalls {
		for _, rob := range ROBSizes {
			var fs []float64
			for _, r := range rows {
				fs = append(fs, 100*r.StallFrac[rob])
			}
			hm = append(hm, stats.Mean(fs))
		}
	}
	t.AddRow(hm...)
	return t
}

func sprintROB(rob int) string {
	switch rob {
	case 128:
		return "ROB128"
	case 192:
		return "ROB192"
	case 224:
		return "ROB224"
	case 350:
		return "ROB350"
	case 512:
		return "ROB512"
	}
	return "ROB?"
}

// Fig2 reproduces Figure 2: OoO and VR performance normalized to the
// 350-entry-ROB OoO baseline, and the full-ROB stall fraction, as a
// function of ROB size. The paper's headline: the stall fraction collapses
// as the ROB grows (51% -> 5% from 128 to 512 in the paper), and with it
// VR's trigger opportunity and speedup.
func Fig2(specs []workloads.Spec, cfg cpu.Config) (ooo, vr []ROBSweepResult, render func() string) {
	ooo = ROBSweep(specs, TechOoO, cfg, false)
	vr = ROBSweep(specs, TechVR, cfg, false)
	render = func() string {
		return sweepTable("Figure 2a: OoO IPC vs ROB size (normalized to OoO/350), with full-ROB stall %", ooo, true).String() +
			"\n" + sweepTable("Figure 2b: VR IPC vs ROB size (normalized to OoO/350)", vr, false).String()
	}
	return ooo, vr, render
}

// Fig12 reproduces Figure 12: DVR's speedup as a function of ROB size,
// which unlike VR's holds up (the paper reports 1.9/2.2/2.2/2.4/2.5x for
// 128/192/224/350/512 with back-end scaling).
func Fig12(specs []workloads.Spec, cfg cpu.Config) (rows []ROBSweepResult, render func() string) {
	rows = ROBSweep(specs, TechDVR, cfg, true)
	render = func() string {
		return sweepTable("Figure 12: DVR IPC vs ROB size (normalized to OoO/350, back-end scaled)", rows, false).String()
	}
	return rows, render
}

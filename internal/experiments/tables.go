package experiments

import (
	"fmt"

	"dvr/internal/cpu"
	"dvr/internal/graphgen"
	"dvr/internal/mem"
	"dvr/internal/runahead"
	"dvr/internal/workloads"
)

// table1 renders Table 1, the baseline core configuration: the paper's
// baseline is cpu.DefaultConfig whatever config the other figures run.
func table1([]Job, []cpu.Result) []Table {
	cfg := cpu.DefaultConfig()
	m := cfg.Mem
	o := runahead.DefaultBudget().Bytes()
	return []Table{{Title: "Table 1: baseline configuration for the OoO core", Rows: [][]any{
		{"Core", "4.0 GHz, out-of-order"},
		{"ROB size", fmt.Sprint(cfg.ROBSize)},
		{"Queue sizes", fmt.Sprintf("issue (%d), load (%d), store (%d)", cfg.IQSize, cfg.LQSize, cfg.SQSize)},
		{"Processor width", fmt.Sprintf("%d-wide fetch/dispatch/rename/commit", cfg.Width)},
		{"Pipeline depth", fmt.Sprintf("%d front-end stages", cfg.FrontendDepth)},
		{"Branch predictor", fmt.Sprintf("TAGE (%d tagged tables, 8 KB class)", len(cfg.Bpred.HistLengths))},
		{"Functional units", fmt.Sprintf("%d int add (1 cycle), %d int mult (%d cycles), %d int div (%d cycles)",
			cfg.IntALUs, cfg.IntMuls, cfg.MulLatency, cfg.IntDivs, cfg.DivLatency)},
		{"Load/store ports", fmt.Sprintf("%d load, %d store", cfg.LoadPorts, cfg.StorePorts)},
		{"L1 D-cache", fmt.Sprintf("%d KB, assoc %d, %d-cycle access, %d MSHRs, stride prefetcher (%d streams)",
			m.L1D.SizeBytes>>10, m.L1D.Assoc, m.L1D.Latency, m.MSHRs, m.StrideStreams)},
		{"Private L2 cache", fmt.Sprintf("%d KB, assoc %d, %d-cycle access", m.L2.SizeBytes>>10, m.L2.Assoc, m.L2.Latency)},
		{"Shared L3 cache", fmt.Sprintf("%d MB, assoc %d, %d-cycle access", m.L3.SizeBytes>>20, m.L3.Assoc, m.L3.Latency)},
		{"Memory", fmt.Sprintf("%d-cycle min. latency, 64 B per %d cycles (51.2 GB/s at 4 GHz), request-based contention",
			m.DRAMMinLatency, m.DRAMCyclesPerLine)},
		{"DVR hardware", fmt.Sprintf("%d bytes total (stride detector %d, VRAT %d, VIR %d, FE buffer %d, reconv stack %d, rest %d)",
			o.Total, o.StrideDetector, o.VRAT, o.VIR, o.FrontEndBuffer, o.ReconvStack,
			o.Total-o.StrideDetector-o.VRAT-o.VIR-o.FrontEndBuffer-o.ReconvStack)},
	}}}
}

// table2Jobs runs the five GAP kernels over every Table 2 input on the
// baseline core. The inputs are Table 2's whatever the suite; the quick
// suite shortens only their ROIs.
func table2Jobs(s Suite, cfg cpu.Config) []Job {
	var jobs []Job
	for _, in := range graphgen.Table2Inputs() {
		for _, sp := range workloads.GAPSpecs(in) {
			if s.quick {
				sp = sp.WithROI(quickROI)
			}
			jobs = append(jobs, Job{Spec: sp, Tech: TechOoO, Cfg: cfg})
		}
	}
	return jobs
}

// table2 reproduces Table 2 with the scaled-down inputs: per input, node
// and edge counts plus the demand LLC MPKI over its GAP kernels.
func table2(jobs []Job, res []cpu.Result) []Table {
	t := Table{Title: "Table 2: graph inputs (scaled; see DESIGN.md)",
		Columns: []string{"input", "nodes(K)", "edges(K)", "LLC MPKI (demand)"}}
	for i := 0; i < len(jobs); {
		in := *jobs[i].Spec.Ref.Graph
		var misses, insts uint64
		for ; i < len(jobs) && *jobs[i].Spec.Ref.Graph == in; i++ {
			misses += res[i].Mem.DRAMAccesses[mem.SrcDemand]
			insts += res[i].Instructions
		}
		mpki := 0.0
		if insts > 0 {
			mpki = float64(misses) / float64(insts) * 1000
		}
		n, m := in.Size()
		t.Rows = append(t.Rows, []any{in.Label(), fmt.Sprintf("%.1f", float64(n)/1000), fmt.Sprintf("%.1f", float64(m)/1000), mpki})
	}
	return []Table{t}
}

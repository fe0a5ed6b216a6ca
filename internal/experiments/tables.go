package experiments

import (
	"context"
	"fmt"
	"strings"

	"dvr/internal/cpu"
	"dvr/internal/graphgen"
	"dvr/internal/runahead"
	"dvr/internal/stats"
	"dvr/internal/workloads"
)

// Table1 renders the baseline core configuration (Table 1).
func Table1(cfg cpu.Config) string {
	var b strings.Builder
	fmt.Fprintln(&b, "== Table 1: baseline configuration for the OoO core ==")
	fmt.Fprintf(&b, "Core              4.0 GHz, out-of-order\n")
	fmt.Fprintf(&b, "ROB size          %d\n", cfg.ROBSize)
	fmt.Fprintf(&b, "Queue sizes       issue (%d), load (%d), store (%d)\n", cfg.IQSize, cfg.LQSize, cfg.SQSize)
	fmt.Fprintf(&b, "Processor width   %d-wide fetch/dispatch/rename/commit\n", cfg.Width)
	fmt.Fprintf(&b, "Pipeline depth    %d front-end stages\n", cfg.FrontendDepth)
	fmt.Fprintf(&b, "Branch predictor  TAGE (%d tagged tables, 8 KB class)\n", len(cfg.Bpred.HistLengths))
	fmt.Fprintf(&b, "Functional units  %d int add (1 cycle), %d int mult (%d cycles), %d int div (%d cycles)\n",
		cfg.IntALUs, cfg.IntMuls, cfg.MulLatency, cfg.IntDivs, cfg.DivLatency)
	fmt.Fprintf(&b, "Load/store ports  %d load, %d store\n", cfg.LoadPorts, cfg.StorePorts)
	m := cfg.Mem
	fmt.Fprintf(&b, "L1 D-cache        %d KB, assoc %d, %d-cycle access, %d MSHRs, stride prefetcher (%d streams)\n",
		m.L1D.SizeBytes>>10, m.L1D.Assoc, m.L1D.Latency, m.MSHRs, m.StrideStreams)
	fmt.Fprintf(&b, "Private L2 cache  %d KB, assoc %d, %d-cycle access\n", m.L2.SizeBytes>>10, m.L2.Assoc, m.L2.Latency)
	fmt.Fprintf(&b, "Shared L3 cache   %d MB, assoc %d, %d-cycle access\n", m.L3.SizeBytes>>20, m.L3.Assoc, m.L3.Latency)
	fmt.Fprintf(&b, "Memory            %d-cycle min. latency, 64 B per %d cycles (51.2 GB/s at 4 GHz), request-based contention\n",
		m.DRAMMinLatency, m.DRAMCyclesPerLine)
	o := runahead.DefaultBudget().Bytes()
	fmt.Fprintf(&b, "DVR hardware      %d bytes total (stride detector %d, VRAT %d, VIR %d, FE buffer %d, reconv stack %d, rest %d)\n",
		o.Total, o.StrideDetector, o.VRAT, o.VIR, o.FrontEndBuffer, o.ReconvStack,
		o.Total-o.StrideDetector-o.VRAT-o.VIR-o.FrontEndBuffer-o.ReconvStack)
	return b.String()
}

// Table2Row is one graph input with its measured LLC MPKI aggregated over
// the five GAP kernels on the baseline core.
type Table2Row struct {
	Input   string
	NodesK  float64 // thousands of nodes (the paper reports millions)
	EdgesK  float64
	LLCMPKI float64
}

// Table2 reproduces Table 2 with the scaled-down inputs: per input, node
// and edge counts plus the LLC MPKI over the five GAP kernels on the
// baseline OoO core.
func Table2(cfg cpu.Config, roi uint64) (rows []Table2Row, render func() string) {
	for _, in := range graphgen.Table2Inputs() {
		g := in.Build()
		specs := workloads.GAPSpecs(graphgen.Input{Name: in.Name, Build: func() *graphgen.Graph { return g }})
		jobs := make([]Job, len(specs))
		for i, sp := range specs {
			if roi != 0 {
				sp = sp.WithROI(roi)
			}
			jobs[i] = Job{Spec: sp, Tech: TechOoO, Cfg: cfg}
		}
		res := must(RunAll(context.Background(), jobs))
		var misses, insts uint64
		for _, r := range res {
			misses += r.Mem.DRAMAccesses[0]
			insts += r.Instructions
		}
		mpki := 0.0
		if insts > 0 {
			mpki = float64(misses) / float64(insts) * 1000
		}
		rows = append(rows, Table2Row{
			Input:   in.Name,
			NodesK:  float64(g.N) / 1000,
			EdgesK:  float64(g.M()) / 1000,
			LLCMPKI: mpki,
		})
	}
	render = func() string {
		t := stats.NewTable("Table 2: graph inputs (scaled; see DESIGN.md)",
			"input", "nodes(K)", "edges(K)", "LLC MPKI (demand)")
		for _, r := range rows {
			t.AddRow(r.Input, fmt.Sprintf("%.1f", r.NodesK), fmt.Sprintf("%.1f", r.EdgesK), r.LLCMPKI)
		}
		return t.String()
	}
	return rows, render
}

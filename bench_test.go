// Package dvr_test holds the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation. Each benchmark runs its
// experiment at quick scale and reports the headline metric of the figure
// as a custom unit, so `go test -bench=. -benchmem` regenerates the whole
// evaluation. For the paper-scale run use `go run ./cmd/dvrbench all`.
package dvr_test

import (
	"context"
	"testing"

	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/stats"
)

func quickCfg() cpu.Config { return cpu.DefaultConfig() }

// simMIPS reports simulated instructions per host-microsecond for the
// benchmark body: call with the experiments.SimInstructions() sample taken
// before the loop, after the loop completes. The counter covers every
// simulation the benchmark triggered, so the metric is throughput of the
// simulator itself, comparable across optimization work.
func simMIPS(b *testing.B, startInsts uint64) {
	insts := experiments.SimInstructions() - startInsts
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(insts)/s/1e6, "simMIPS")
	}
}

// BenchmarkTable1Config reports the DVR hardware budget alongside the
// simulation of a single baseline run (Table 1 sanity).
func BenchmarkTable1Config(b *testing.B) {
	suite := experiments.QuickSuite()
	spec := suite.GAP[1] // bfs
	start := experiments.SimInstructions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(context.Background(), experiments.Job{Spec: spec, Tech: experiments.TechOoO, Cfg: quickCfg()})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.IPC(), "baseline-IPC")
	}
	simMIPS(b, start)
}

// BenchmarkTable2Inputs regenerates Table 2: the graph inputs with their
// demand LLC MPKI over the GAP kernels.
func BenchmarkTable2Inputs(b *testing.B) {
	start := experiments.SimInstructions()
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Table2(quickCfg(), 40_000)
		var mpki []float64
		for _, r := range rows {
			mpki = append(mpki, r.LLCMPKI)
		}
		b.ReportMetric(stats.Mean(mpki), "mean-LLC-MPKI")
	}
	simMIPS(b, start)
}

// BenchmarkFig2ROBSweep regenerates Figure 2: VR's speedup across ROB
// sizes; the reported metric is the ratio of VR's gain at ROB=128 to its
// gain at ROB=512 (the paper's point: it decays, so this exceeds 1).
func BenchmarkFig2ROBSweep(b *testing.B) {
	suite := experiments.QuickSuite()
	start := experiments.SimInstructions()
	for i := 0; i < b.N; i++ {
		_, vr, _ := experiments.Fig2(suite.GAP, quickCfg())
		var at128, at512 []float64
		for _, r := range vr {
			at128 = append(at128, r.Speedup[128])
			at512 = append(at512, r.Speedup[512])
		}
		b.ReportMetric(stats.HarmonicMean(at128)/stats.HarmonicMean(at512), "VR-gain-128/512")
	}
	simMIPS(b, start)
}

// BenchmarkFig7Performance regenerates Figure 7 and reports DVR's h-mean
// speedup over the baseline (the paper: 2.4x at full scale).
func BenchmarkFig7Performance(b *testing.B) {
	suite := experiments.QuickSuite()
	specs := suite.All()
	start := experiments.SimInstructions()
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig7(specs, quickCfg())
		var dvr, vr []float64
		for _, r := range rows {
			dvr = append(dvr, r.Speedups[experiments.TechDVR])
			vr = append(vr, r.Speedups[experiments.TechVR])
		}
		b.ReportMetric(stats.HarmonicMean(dvr), "DVR-hmean-speedup")
		b.ReportMetric(stats.HarmonicMean(vr), "VR-hmean-speedup")
	}
	simMIPS(b, start)
}

// BenchmarkFig8Breakdown regenerates Figure 8 and reports each cumulative
// variant's h-mean speedup.
func BenchmarkFig8Breakdown(b *testing.B) {
	suite := experiments.QuickSuite()
	specs := suite.All()
	start := experiments.SimInstructions()
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig8(specs, quickCfg())
		per := map[experiments.Technique][]float64{}
		for _, r := range rows {
			for _, t := range experiments.Fig8Variants {
				per[t] = append(per[t], r.Speedups[t])
			}
		}
		b.ReportMetric(stats.HarmonicMean(per[experiments.TechVR]), "vr")
		b.ReportMetric(stats.HarmonicMean(per[experiments.TechDVROffload]), "offload")
		b.ReportMetric(stats.HarmonicMean(per[experiments.TechDVRDiscovery]), "discovery")
		b.ReportMetric(stats.HarmonicMean(per[experiments.TechDVR]), "nested-full-dvr")
	}
	simMIPS(b, start)
}

// BenchmarkFig9MLP regenerates Figure 9 and reports mean MSHR occupancy
// for the baseline and DVR.
func BenchmarkFig9MLP(b *testing.B) {
	suite := experiments.QuickSuite()
	specs := suite.All()
	start := experiments.SimInstructions()
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig9(specs, quickCfg())
		var ooo, dvr []float64
		for _, r := range rows {
			ooo = append(ooo, r.MLP[experiments.TechOoO])
			dvr = append(dvr, r.MLP[experiments.TechDVR])
		}
		b.ReportMetric(stats.Mean(ooo), "OoO-MLP")
		b.ReportMetric(stats.Mean(dvr), "DVR-MLP")
	}
	simMIPS(b, start)
}

// BenchmarkFig10Accuracy regenerates Figure 10 and reports mean normalized
// DRAM traffic for VR and DVR (over-fetch factor; 1.0 = perfectly
// accurate).
func BenchmarkFig10Accuracy(b *testing.B) {
	suite := experiments.QuickSuite()
	specs := suite.All()
	start := experiments.SimInstructions()
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig10(specs, quickCfg())
		var vr, dvr []float64
		for _, r := range rows {
			vr = append(vr, r.Main[experiments.TechVR]+r.Runahead[experiments.TechVR])
			dvr = append(dvr, r.Main[experiments.TechDVR]+r.Runahead[experiments.TechDVR])
		}
		b.ReportMetric(stats.Mean(vr), "VR-DRAM-vs-OoO")
		b.ReportMetric(stats.Mean(dvr), "DVR-DRAM-vs-OoO")
	}
	simMIPS(b, start)
}

// BenchmarkFig11Timeliness regenerates Figure 11 and reports the fraction
// of DVR-prefetched lines the main thread finds in the L1-D.
func BenchmarkFig11Timeliness(b *testing.B) {
	suite := experiments.QuickSuite()
	specs := suite.All()
	start := experiments.SimInstructions()
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig11(specs, quickCfg())
		var l1, off []float64
		for _, r := range rows {
			l1 = append(l1, r.L1)
			off = append(off, r.OffChip)
		}
		b.ReportMetric(stats.Mean(l1), "found-in-L1")
		b.ReportMetric(stats.Mean(off), "off-chip")
	}
	simMIPS(b, start)
}

// BenchmarkFig12ROBSweep regenerates Figure 12 and reports DVR's h-mean
// speedup at the smallest and largest ROB (the paper: the gain holds or
// grows with ROB size, unlike VR's).
func BenchmarkFig12ROBSweep(b *testing.B) {
	suite := experiments.QuickSuite()
	start := experiments.SimInstructions()
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig12(suite.GAP, quickCfg())
		var at128, at512 []float64
		for _, r := range rows {
			at128 = append(at128, r.Speedup[128])
			at512 = append(at512, r.Speedup[512])
		}
		b.ReportMetric(stats.HarmonicMean(at128), "DVR-hmean-128")
		b.ReportMetric(stats.HarmonicMean(at512), "DVR-hmean-512")
	}
	simMIPS(b, start)
}

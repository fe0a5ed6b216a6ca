// Package dvr_test holds the benchmark harness: one testing.B sub-benchmark
// per registered table and figure of the evaluation, each run at quick
// scale, reporting the simulator's throughput. The figures' own numbers
// are in their rendered tables (`go run ./cmd/dvrbench -quick <name>`);
// for the paper-scale run use `go run ./cmd/dvrbench all`.
package dvr_test

import (
	"context"
	"slices"
	"testing"

	"dvr/internal/cpu"
	"dvr/internal/experiments"
)

// BenchmarkFigures regenerates every registered figure at quick scale,
// one sub-benchmark each (BenchmarkFigures/fig7, ...). simMIPS is
// simulated instructions per host-microsecond over every simulation the
// figure ran: the throughput of the simulator itself, comparable across
// optimization work.
func BenchmarkFigures(b *testing.B) {
	for _, f := range slices.Concat(experiments.Figures, experiments.Studies) {
		b.Run(f.Name, func(b *testing.B) {
			start := experiments.SimInstructions()
			for i := 0; i < b.N; i++ {
				jobs := f.Jobs(experiments.QuickSuite(), cpu.DefaultConfig())
				res, err := experiments.RunAll(context.Background(), jobs)
				if err != nil {
					b.Fatal(err)
				}
				f.Tables(jobs, res)
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(experiments.SimInstructions()-start)/s/1e6, "simMIPS")
			}
		})
	}
}

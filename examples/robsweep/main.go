// ROB sweep: the Figure 2 / Figure 12 experiment in miniature — VR's gain
// decays as the reorder buffer grows (its full-ROB trigger disappears)
// while DVR's decoupled trigger keeps firing.
//
//	go run ./examples/robsweep
package main

import (
	"context"
	"fmt"
	"log"

	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/graphgen"
	"dvr/internal/workloads"
)

func main() {
	in := graphgen.Input{Name: "KR", Build: func() *graphgen.Graph { return graphgen.Kronecker(14, 8, 3) }}
	specs := workloads.GAPSpecs(in)
	for i := range specs {
		specs[i].ROI = 80_000
	}
	cfg := cpu.DefaultConfig()

	fmt.Println("h-mean speedup vs OoO/350 (GAP kernels):")
	fmt.Printf("%-6s %8s %8s %10s\n", "ROB", "VR", "DVR", "full-ROB%")
	// The registered Figures 2 and 12 over these specs: their tables' last
	// rows are the h-means (and Figure 2a's mean stall %) per ROB size.
	var hmean [][]any // Figure 2a, 2b, 12
	for _, f := range experiments.Figures {
		if f.Name != "fig2" && f.Name != "fig12" {
			continue
		}
		jobs := f.Jobs(experiments.Suite{GAP: specs}, cfg)
		res, err := experiments.RunAll(context.Background(), jobs)
		if err != nil {
			log.Fatal(err)
		}
		for _, t := range f.Tables(jobs, res) {
			hmean = append(hmean, t.Rows[len(t.Rows)-1])
		}
	}
	n := len(experiments.ROBSizes)
	for i, rob := range experiments.ROBSizes {
		fmt.Printf("%-6d %8.2f %8.2f %9.1f%%\n", rob, hmean[1][1+i], hmean[2][1+i], hmean[0][1+n+i])
	}
}

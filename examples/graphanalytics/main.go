// Graph analytics: run all five GAP kernels on a power-law and a uniform
// graph under OoO, VR and DVR — showing where Nested Vector Runahead
// matters (short inner loops on the uniform graph).
//
//	go run ./examples/graphanalytics
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
	inputs := []graphgen.Input{
		{Name: "KRON", Build: func() *graphgen.Graph { return graphgen.Kronecker(14, 8, 7) }},
		{Name: "URAND", Build: func() *graphgen.Graph { return graphgen.Uniform(16_384, 131_072, 9) }},
	}
	cfg := cpu.DefaultConfig()
	techs := []experiments.Technique{experiments.TechOoO, experiments.TechVR, experiments.TechDVR}

	for _, in := range inputs {
		fmt.Printf("== input %s ==\n", in.Name)
		specs := workloads.GAPSpecs(in)
		for i := range specs {
			specs[i].ROI = 100_000
		}
		var jobs []experiments.Job
		for _, sp := range specs {
			for _, t := range techs {
				jobs = append(jobs, experiments.Job{Spec: sp, Tech: t, Cfg: cfg})
			}
		}
		res, err := experiments.RunAll(context.Background(), jobs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %8s %8s %8s %14s %8s\n", "kernel", "OoO", "VRx", "DVRx", "DVR episodes", "nested")
		for i, sp := range specs {
			base, vr, dvr := res[3*i], res[3*i+1], res[3*i+2] // techs' order
			fmt.Printf("%-12s %8.3f %8.2f %8.2f %14d %8d\n",
				sp.Name, base.IPC(),
				experiments.Speedup(base, vr), experiments.Speedup(base, dvr),
				dvr.Engine.Episodes, dvr.Engine.NestedModes)
		}
		fmt.Println()
	}
}

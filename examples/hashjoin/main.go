// Hash join: the database-style probe kernels (hj2, hj8, camel) under
// every technique — the dependent-chain workloads where vector runahead's
// reordering shines over scalar runahead (PRE).
//
//	go run ./examples/hashjoin
package main

import (
	"context"
	"fmt"
	"log"

	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/workloads"
)

func main() {
	specs := []workloads.Spec{
		{Name: "hj2", Build: workloads.HJ2, ROI: 120_000},
		{Name: "hj8", Build: workloads.HJ8, ROI: 120_000},
		{Name: "camel", Build: workloads.Camel, ROI: 120_000},
	}
	techs := []experiments.Technique{
		experiments.TechOoO, experiments.TechPRE, experiments.TechIMP,
		experiments.TechVR, experiments.TechDVR, experiments.TechOracle,
	}
	cfg := cpu.DefaultConfig()
	m, err := experiments.MatrixE(context.Background(), specs, techs, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-8s", "bench")
	for _, t := range techs[1:] {
		fmt.Printf(" %9s", t)
	}
	fmt.Println(" (speedup vs OoO)")
	for _, sp := range specs {
		base := m[sp.Name][experiments.TechOoO]
		fmt.Printf("%-8s", sp.Name)
		for _, t := range techs[1:] {
			fmt.Printf(" %9.2f", experiments.Speedup(base, m[sp.Name][t]))
		}
		fmt.Println()
	}
	fmt.Println("\nhj8's 8-deep dependent chain defeats scalar runahead (PRE cannot")
	fmt.Println("produce addresses past data still in flight) and the IMP (no linear")
	fmt.Println("index pattern survives the hash); DVR follows and vectorizes the")
	fmt.Println("whole chain across 128 future probes.")
}

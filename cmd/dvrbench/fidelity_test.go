package main

import (
	"strings"
	"testing"

	"dvr/internal/cpu"
	"dvr/internal/experiments"
)

// Two benchmarks under a baseline and one technique, with hand-computed
// errors: the per-cell distributions, the worst-cell order and the CI95
// coverage count come out as worked by hand.
func TestCellFidelity(t *testing.T) {
	techs := []experiments.Technique{experiments.TechOoO, experiments.TechDVR}
	res := func(insts, cycles uint64, ci float64) cpu.Result {
		return cpu.Result{Instructions: insts, Cycles: cycles, Sampled: &cpu.SampledProvenance{CyclesCI95Rel: ci}}
	}
	exact := []cpu.Result{{Instructions: 1000, Cycles: 1000}, {Instructions: 1000, Cycles: 500}, {Instructions: 1000, Cycles: 2000}, {Instructions: 1000, Cycles: 1000}}
	sampled := []cpu.Result{
		res(1000, 1100, 0.2), // +10% cycles, inside a 20% interval
		res(1000, 500, 0),    // exact: inside even a zero interval
		res(1000, 2000, 0),   // exact
		res(1000, 1500, 0.1), // +50%, outside
	}
	cycles, speedups, covered := cellFidelity([]string{"a", "b"}, techs, exact, sampled)
	if covered != 3 {
		t.Errorf("covered %d cells, want 3", covered)
	}
	wantCycles := []float64{0.1, 0, 0, 0.5}
	for i, c := range cycles {
		if d := c.err - wantCycles[i]; d > 1e-12 || d < -1e-12 {
			t.Errorf("cycle error %d (%s) = %g, want %g", i, c.cell, c.err, wantCycles[i])
		}
	}
	// a: exact speedup 2, sampled 1100/500 = 2.2 (+10%); b: exact 2,
	// sampled 2000/1500 (-33.3%).
	if len(speedups) != 2 || speedups[0].cell != "a dvr" || speedups[1].cell != "b dvr" {
		t.Fatalf("speedup cells %+v", speedups)
	}
	if d := speedups[0].err - 0.1; d > 1e-12 || d < -1e-12 {
		t.Errorf("a dvr speedup error %g, want 0.1", speedups[0].err)
	}
	if d := speedups[1].err - 1.0/3; d > 1e-12 || d < -1e-12 {
		t.Errorf("b dvr speedup error %g, want 1/3", speedups[1].err)
	}
	got := errSummary("cycle", cycles)
	for _, want := range []string{"median 0.00%", "p90 50.00%", "max 50.00%", "over 4 cells", "worst: b dvr 50.0%, a ooo 10.0%"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary %q lacks %q", got, want)
		}
	}
}

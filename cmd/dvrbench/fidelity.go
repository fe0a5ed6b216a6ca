package main

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"dvr/internal/cpu"
	"dvr/internal/experiments"
)

// cellErr is one cell's relative error of a sampled projection against the
// exact run.
type cellErr struct {
	cell string // "<benchmark> <technique>"
	err  float64
}

// cellFidelity compares a sampled matrix with the exact one cell by cell.
// Both hold len(techs) results per benchmark, in techs order, techs[0]
// being the speedup baseline. It returns each cell's relative cycle error,
// each non-baseline cell's relative speedup error, and how many cells'
// exact cycles fall inside the projection's 95% confidence interval.
func cellFidelity(names []string, techs []experiments.Technique, exact, sampled []cpu.Result) (cycles, speedups []cellErr, covered int) {
	rel := func(got, want float64) float64 { return math.Abs(got-want) / want }
	for b, name := range names {
		row := b * len(techs)
		for k, tech := range techs {
			e, s := exact[row+k], sampled[row+k]
			label := name + " " + string(tech)
			cycles = append(cycles, cellErr{label, rel(float64(s.Cycles), float64(e.Cycles))})
			if k > 0 {
				se, ss := experiments.Speedup(exact[row], e), experiments.Speedup(sampled[row], s)
				speedups = append(speedups, cellErr{label, rel(ss, se)})
			}
			if s.Sampled != nil && math.Abs(float64(s.Cycles)-float64(e.Cycles)) <= s.Sampled.CyclesCI95Rel*float64(s.Cycles) {
				covered++
			}
		}
	}
	return cycles, speedups, covered
}

// errSummary renders one error distribution: median, p90 and max by
// nearest rank, and the five worst cells.
func errSummary(what string, errs []cellErr) string {
	sorted := slices.Clone(errs)
	slices.SortStableFunc(sorted, func(a, b cellErr) int { return cmp.Compare(a.err, b.err) })
	rank := func(q float64) float64 { return sorted[max(int(math.Ceil(q*float64(len(sorted))))-1, 0)].err }
	var worst []string
	for i := len(sorted) - 1; i >= max(len(sorted)-5, 0); i-- {
		worst = append(worst, fmt.Sprintf("%s %.1f%%", sorted[i].cell, 100*sorted[i].err))
	}
	return fmt.Sprintf("per-cell %s error: median %.2f%%, p90 %.2f%%, max %.2f%% over %d cells; worst: %s\n",
		what, 100*rank(0.5), 100*rank(0.9), 100*rank(1), len(sorted), strings.Join(worst, ", "))
}

// writeCellFidelity prints the per-cell report: read only, it gates
// nothing.
func writeCellFidelity(w io.Writer, names []string, techs []experiments.Technique, exact, sampled []cpu.Result) {
	cycles, speedups, covered := cellFidelity(names, techs, exact, sampled)
	fmt.Fprint(w, errSummary("cycle", cycles))
	fmt.Fprint(w, errSummary("speedup", speedups))
	fmt.Fprintf(w, "exact cycles inside the sampled CI95: %d of %d cells (%.1f%%, not gated)\n",
		covered, len(cycles), 100*float64(covered)/float64(len(cycles)))
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"

	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/graphgen"
	"dvr/internal/stats"
	"dvr/internal/workloads"
)

// figTechs is the Figure 7 lineup with its normalisation baseline first.
var figTechs = append([]experiments.Technique{experiments.TechOoO}, experiments.AllTechniques...)

// gapKernels are the graph kernels, in the suite's order.
var gapKernels = []string{"bc", "bfs", "cc", "pr", "sssp"}

// graphParams is the one input the seed shapes directly: the Kronecker
// graph every GAP kernel runs over.
func graphParams(seed uint64, scale int) graphgen.Params {
	return graphgen.Params{Gen: graphgen.GenKronecker, Scale: scale, EdgeFactor: 8, Seed: seed, Name: "KR-S"}
}

// suiteRefs returns the declarative form of the 13 quick-suite benchmarks
// over the seed's graph at one ROI: all the program under test ever sees.
func suiteRefs(seed uint64, scale int, roi uint64) []workloads.Ref {
	p := graphParams(seed, scale)
	var refs []workloads.Ref
	for _, k := range gapKernels {
		g := p
		refs = append(refs, workloads.Ref{Kernel: k, Graph: &g, ROI: roi})
	}
	for _, sp := range workloads.HPCDBSpecs() {
		refs = append(refs, workloads.Ref{Kernel: sp.Ref.Kernel, ROI: roi})
	}
	return refs
}

// schedule returns the seed's permutation of 0..n-1: the order in which
// serve-warm's requests visit cells.
func schedule(seed uint64, n int) []int {
	return rand.New(rand.NewSource(int64(seed))).Perm(n)
}

// builtSuite is the in-process form of the suite: specs whose Build hands
// out copy-on-write forks of images built once in set-up.
type builtSuite struct {
	specs []workloads.Spec
	bases map[string]*workloads.Workload
}

// buildSuite generates the seed's graph and builds the 13 workload images,
// under spans when traced. This is the set-up of the matrix workloads.
func (r *run) buildSuite(parent *liveSpan, roi uint64) (*builtSuite, error) {
	p := graphParams(r.o.seed, r.sz.graphScale)
	sp := r.spans.start("graphgen.generate", parent)
	g, err := p.Generate()
	sp.end()
	if err != nil {
		return nil, err
	}
	in := graphgen.Input{Name: p.Label(), Params: p, Build: func() *graphgen.Graph { return g }}
	specs := append(workloads.GAPSpecs(in), workloads.HPCDBSpecs()...)
	s := &builtSuite{bases: make(map[string]*workloads.Workload, len(specs))}
	for _, spec := range specs {
		bs := r.spans.start("workloads.build", parent)
		w := spec.Build()
		bs.end()
		s.bases[spec.Name] = w
		spec.Build = func() *workloads.Workload { return w.Fork() }
		s.specs = append(s.specs, spec.WithROI(roi))
	}
	return s, nil
}

type matrix = map[string]map[experiments.Technique]cpu.Result

// checkResult applies the conservation checks every simulated result must
// pass: the ROI was run (or the kernel halted first), time advanced, and
// IPC is positive and within the machine's width.
func checkResult(res cpu.Result, roi uint64, width int) error {
	switch {
	case res.Instructions == 0 || res.Instructions > roi:
		return fmt.Errorf("%s/%s: %d instructions for ROI %d", res.Name, res.Technique, res.Instructions, roi)
	case res.Cycles == 0:
		return fmt.Errorf("%s/%s: zero cycles", res.Name, res.Technique)
	case res.IPC() <= 0 || res.IPC() > float64(width):
		return fmt.Errorf("%s/%s: IPC %.3f outside (0, %d]", res.Name, res.Technique, res.IPC(), width)
	}
	return nil
}

// haltsAt runs the kernel functionally and returns how many instructions of
// the ROI it executes before halting: the one legitimate reason for a
// result to report fewer instructions than its ROI.
func haltsAt(base *workloads.Workload, roi uint64) uint64 {
	return base.Fork().Frontend().Run(roi)
}

// verifyMatrix checks every cell of m and counts failures on r. first,
// when non-nil, is an earlier matrix of the same inputs: the simulator is
// deterministic, so every cell must match it exactly under Canonical.
func (r *run) verifyMatrix(s *builtSuite, m, first matrix, roi uint64, sampled bool) {
	width := cpu.DefaultConfig().Width
	for _, spec := range s.specs {
		for _, tech := range figTechs {
			res, ok := m[spec.Name][tech]
			if !ok {
				r.failf("%s/%s: cell missing from the matrix", spec.Name, tech)
				continue
			}
			if err := checkResult(res, roi, width); err != nil {
				r.failf("%v", err)
				continue
			}
			if res.Instructions < roi {
				if want := haltsAt(s.bases[spec.Name], roi); res.Instructions != want {
					r.failf("%s/%s: %d instructions, but the kernel runs %d of ROI %d", spec.Name, tech, res.Instructions, want, roi)
					continue
				}
			}
			if sampled != (res.Sampled != nil) {
				r.failf("%s/%s: sampled provenance present=%v, want %v", spec.Name, tech, res.Sampled != nil, sampled)
				continue
			}
			if first != nil && !reflect.DeepEqual(res.Canonical(), first[spec.Name][tech].Canonical()) {
				r.failf("%s/%s: result differs between repetitions of one matrix", spec.Name, tech)
			}
		}
	}
}

// hmeanSpeedup is Figure 7's headline number for one technique: the
// harmonic mean over benchmarks of IPC normalised to the OoO baseline.
func hmeanSpeedup(specs []workloads.Spec, m matrix, tech experiments.Technique) float64 {
	var sp []float64
	for _, s := range specs {
		sp = append(sp, experiments.Speedup(m[s.Name][experiments.TechOoO], m[s.Name][tech]))
	}
	return stats.HarmonicMean(sp)
}

// exactMatrix runs the full matrix exactly; it is the reference the sampled
// projection is judged against.
func exactMatrix(ctx context.Context, specs []workloads.Spec) (matrix, error) {
	return experiments.MatrixE(ctx, specs, figTechs, cpu.DefaultConfig())
}

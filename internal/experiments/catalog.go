package experiments

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"dvr/internal/cpu"
	"dvr/internal/graphgen"
	"dvr/internal/workloads"
)

// Suite is a benchmark catalogue at a chosen scale. FullSuite reproduces
// the paper's evaluation; QuickSuite shrinks graphs and ROIs for tests.
type Suite struct {
	GAP   []workloads.Spec // 5 kernels x graph inputs
	HPCDB []workloads.Spec
}

// All returns every benchmark in the suite.
func (s Suite) All() []workloads.Spec {
	out := make([]workloads.Spec, 0, len(s.GAP)+len(s.HPCDB))
	out = append(out, s.GAP...)
	out = append(out, s.HPCDB...)
	return out
}

// memoSpec wraps spec.Build so the workload image is constructed at most
// once per process; every call hands out a copy-on-write fork of that
// image, which is observationally identical to a fresh build (forks apply
// their stores privately). Workload construction rivals simulation cost on
// quick suites, so the figure benchmarks — which each rebuild the suite —
// would otherwise spend most of their time rebuilding identical graphs.
func memoSpec(spec workloads.Spec) workloads.Spec {
	build := spec.Build
	var once sync.Once
	var base *workloads.Workload
	spec.Build = func() *workloads.Workload {
		once.Do(func() { base = build() })
		return base.Fork()
	}
	return spec
}

func memoSpecs(specs []workloads.Spec) []workloads.Spec {
	out := make([]workloads.Spec, len(specs))
	for i, sp := range specs {
		out[i] = memoSpec(sp)
	}
	return out
}

// clone returns a suite with fresh spec slices (callers may adjust ROIs in
// place) that still share the memoized Build closures.
func (s Suite) clone() Suite {
	return Suite{GAP: slices.Clone(s.GAP), HPCDB: slices.Clone(s.HPCDB)}
}

var (
	fullSuiteOnce  sync.Once
	fullSuiteVal   Suite
	quickSuiteOnce sync.Once
	quickSuiteVal  Suite
)

// FullSuite builds the paper's benchmark set: the five GAP kernels over the
// five Table 2 inputs, plus the eight hpc-db benchmarks. Workload images
// are memoized per process: repeated calls (and repeated runs of one spec)
// share one built image through copy-on-write forks.
func FullSuite() Suite {
	fullSuiteOnce.Do(func() {
		var s Suite
		for _, in := range graphgen.Table2Inputs() {
			s.GAP = append(s.GAP, memoSpecs(workloads.GAPSpecs(in))...)
		}
		s.HPCDB = memoSpecs(workloads.HPCDBSpecs())
		fullSuiteVal = s
	})
	return fullSuiteVal.clone()
}

// GAPOnly builds the five GAP kernels over a single input (used by the
// ROB-sweep figures, which the paper reports for the GAP set). The returned
// specs memoize their built images, so a sweep that runs each spec at many
// ROB sizes builds the input graph once.
func GAPOnly(in graphgen.Input) Suite {
	return Suite{GAP: memoSpecs(workloads.GAPSpecs(in))}
}

// QuickSuite is a scaled-down suite for unit tests and examples: one small
// Kronecker input for the GAP kernels and shortened ROIs. Like FullSuite,
// built images are memoized per process.
func QuickSuite() Suite {
	quickSuiteOnce.Do(func() {
		in := graphgen.Params{Gen: graphgen.GenKronecker, Scale: 13, EdgeFactor: 8, Seed: 7, Name: "KR-S"}.Input()
		var s Suite
		for _, spec := range workloads.GAPSpecs(in) {
			s.GAP = append(s.GAP, memoSpec(spec.WithROI(60_000)))
		}
		for _, spec := range workloads.HPCDBSpecs() {
			s.HPCDB = append(s.HPCDB, memoSpec(spec.WithROI(60_000)))
		}
		quickSuiteVal = s
	})
	return quickSuiteVal.clone()
}

// Refs returns the declarative refs of every benchmark in the suite, in
// All() order. It errors if any spec lacks one (a custom closure spec),
// since such a suite cannot be shipped to a dvrd server.
func (s Suite) Refs() ([]workloads.Ref, error) {
	specs := s.All()
	refs := make([]workloads.Ref, 0, len(specs))
	for _, sp := range specs {
		if sp.Ref.Kernel == "" {
			return nil, fmt.Errorf("experiments: benchmark %q has no declarative ref", sp.Name)
		}
		ref := sp.Ref
		ref.ROI = sp.ROI
		refs = append(refs, ref)
	}
	return refs, nil
}

// Cell identifies one (benchmark, technique, config) simulation.
type Cell struct {
	Spec workloads.Spec
	Tech Technique
	Cfg  cpu.Config
}

// RunAll executes the cells concurrently (one simulation per core) and
// returns results in input order. It panics on any failure — the
// trusted-input convenience for the in-process figure harnesses; paths
// that serve untrusted jobs (the dvrd service and anything like it) use
// RunAllE, which returns errors instead.
func RunAll(cells []Cell) []cpu.Result {
	results, err := RunAllE(context.Background(), cells)
	if err != nil {
		panic(err)
	}
	return results
}

// buildWorkload runs spec.Build with panics converted to errors: a graph
// generator or kernel builder that panics (a registry bug, a hostile
// custom kernel) fails the cells that need it instead of unwinding the
// whole runner.
func buildWorkload(spec workloads.Spec) (w *workloads.Workload, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: building %s: %v", spec.Name, r)
		}
	}()
	return spec.Build(), nil
}

// RunAllE is the error-returning core of RunAll: the first failure (an
// unknown technique, a workload that fails to build, ctx expiry) cancels
// the remaining cells and is returned; nothing panics.
//
// Cells that name the same benchmark share one built workload: the image
// is built once (workload construction rivals simulation cost on quick
// suites), as a scheduler task of its own (see runGrouped) so no worker
// parks behind another's build, and every simulation runs on a
// copy-on-write fork of it, which is observationally identical to a fresh
// build. Spec names are assumed to identify the built workload, which
// holds for every suite in this package (names encode kernel and input).
func RunAllE(ctx context.Context, cells []Cell) ([]cpu.Result, error) {
	results := make([]cpu.Result, len(cells))
	err := runGrouped(ctx, len(cells),
		func(i int) string { return cells[i].Spec.Name },
		func(first int) (*workloads.Workload, error) { return buildWorkload(cells[first].Spec) },
		func(ctx context.Context, i int, base *workloads.Workload) (err error) {
			c := cells[i]
			results[i], err = runWorkloadE(ctx, base.Fork(), c.Spec, c.Tech, c.Cfg)
			return err
		})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Matrix runs every benchmark under every technique with one config and
// returns results[benchmark][technique]. Like RunAll it panics on
// failure; MatrixE is the error-returning form.
func Matrix(specs []workloads.Spec, techs []Technique, cfg cpu.Config) map[string]map[Technique]cpu.Result {
	m, err := MatrixE(context.Background(), specs, techs, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// MatrixE runs every benchmark under every technique with one config and
// returns results[benchmark][technique], propagating the first failure
// instead of panicking.
func MatrixE(ctx context.Context, specs []workloads.Spec, techs []Technique, cfg cpu.Config) (map[string]map[Technique]cpu.Result, error) {
	var cells []Cell
	for _, sp := range specs {
		for _, tech := range techs {
			cells = append(cells, Cell{Spec: sp, Tech: tech, Cfg: cfg})
		}
	}
	res, err := RunAllE(ctx, cells)
	if err != nil {
		return nil, err
	}
	return byCell(specs, techs, res), nil
}

// byCell indexes the spec-major results of a matrix run as
// results[benchmark][technique].
func byCell(specs []workloads.Spec, techs []Technique, res []cpu.Result) map[string]map[Technique]cpu.Result {
	out := make(map[string]map[Technique]cpu.Result, len(specs))
	for i, sp := range specs {
		row := make(map[Technique]cpu.Result, len(techs))
		for j, tech := range techs {
			row[tech] = res[i*len(techs)+j]
		}
		out[sp.Name] = row
	}
	return out
}

package experiments

import (
	"fmt"
	"slices"
	"sync"

	"dvr/internal/graphgen"
	"dvr/internal/workloads"
)

// Suite is a benchmark catalogue at a chosen scale. FullSuite reproduces
// the paper's evaluation; QuickSuite shrinks graphs and ROIs for tests.
type Suite struct {
	GAP   []workloads.Spec // 5 kernels x graph inputs
	HPCDB []workloads.Spec
	// quick marks QuickSuite, for the figures that trim more than the
	// suite's own graphs and ROIs (Table 2, the ablations).
	quick bool
}

// gapKernels is the number of GAP kernels per graph input.
const gapKernels = 5

// quickROI is the timed budget of every QuickSuite benchmark.
const quickROI = 60_000

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

// kr returns the GAP kernels over the suite's first input (KR at full
// scale), the set the paper reports its ROB sweeps on. Appending to it
// leaves the suite alone.
func (s Suite) kr() []workloads.Spec {
	return slices.Clip(s.GAP[:min(len(s.GAP), gapKernels)])
}

// clone returns a suite with fresh spec slices (callers may adjust ROIs in
// place) that still share the memoized Build closures.
func (s Suite) clone() Suite {
	s.GAP, s.HPCDB = slices.Clone(s.GAP), slices.Clone(s.HPCDB)
	return s
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

// QuickSuite is a scaled-down suite for unit tests and examples: one small
// Kronecker input for the GAP kernels and shortened ROIs. Like FullSuite,
// built images are memoized per process.
func QuickSuite() Suite {
	quickSuiteOnce.Do(func() {
		in := graphgen.Params{Gen: graphgen.GenKronecker, Scale: 13, EdgeFactor: 8, Seed: 7, Name: "KR-S"}.Input()
		s := Suite{quick: true}
		for _, spec := range workloads.GAPSpecs(in) {
			s.GAP = append(s.GAP, memoSpec(spec.WithROI(quickROI)))
		}
		for _, spec := range workloads.HPCDBSpecs() {
			s.HPCDB = append(s.HPCDB, memoSpec(spec.WithROI(quickROI)))
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

package experiments

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"dvr/internal/cpu"
)

// allocBudget is each Figure 7 technique's allowance of heap allocations
// per simulated instruction in TestHotPathAllocations: the rate measured
// when the budget was set (in the comment) x 1.25 + 0.01, headroom for
// runtime noise but not for a regression.
var allocBudget = map[Technique]float64{
	TechOoO:    0.0143, // 0.0034
	TechPRE:    0.0179, // 0.0063
	TechIMP:    0.0158, // 0.0046
	TechVR:     0.0154, // 0.0043
	TechDVR:    0.0672, // 0.0457
	TechOracle: 0.0164, // 0.0051
}

// TestHotPathAllocations is the allocation-regression guard for the
// simulator's hot path: a run must cost (nearly) zero heap allocations per
// simulated instruction. The OoO baseline's allocations are one-time core
// construction (caches, calendars, predictor); the engines add their own
// tables, and DVR the per-episode vector state (laneVec arrays, discovery
// tables), which is amortized over the thousands of instructions each
// episode covers. A failure here means something on the per-instruction
// path started allocating — see DESIGN.md §Simulator performance.
func TestHotPathAllocations(t *testing.T) {
	sp := quickSpec()
	sp.ROI = 50_000
	base := sp.Build()
	sp.Build = base.Fork
	cfg := cpu.DefaultConfig()

	for _, tech := range append([]Technique{TechOoO}, AllTechniques...) {
		budget, ok := allocBudget[tech]
		if !ok {
			t.Errorf("%s: no allocation budget", tech)
			continue
		}
		var insts uint64
		allocs := testing.AllocsPerRun(3, func() {
			res := runT(t, sp, tech, cfg)
			insts = res.Instructions
		})
		if insts == 0 {
			t.Fatalf("%s: no instructions simulated", tech)
		}
		perInst := allocs / float64(insts)
		t.Logf("%s: %.0f allocs / %d insts = %.4f allocs/inst", tech, allocs, insts, perInst)
		if perInst > budget {
			t.Errorf("%s: %.4f allocs per simulated instruction, budget %.4f", tech, perInst, budget)
		}
	}
}

// TestRunAllDeterministicAcrossParallelism checks that the parallel runner
// is a pure scheduler: the same cells produce bit-identical results whether
// simulations run one at a time or concurrently. This is what makes shared
// copy-on-write workload bases safe (no run can observe another's stores)
// and keeps figures reproducible across machines. HostNS is the one
// intentionally nondeterministic field, so it is zeroed before comparing.
func TestRunAllDeterministicAcrossParallelism(t *testing.T) {
	sp := quickSpec()
	cfg := cpu.DefaultConfig()
	jobs := []Job{
		{Spec: sp, Tech: TechOoO, Cfg: cfg},
		{Spec: sp, Tech: TechVR, Cfg: cfg},
		{Spec: sp, Tech: TechDVR, Cfg: cfg},
		{Spec: sp, Tech: TechOracle, Cfg: cfg},
		{Spec: sp, Tech: TechDVR, Cfg: cfg.WithROB(128)},
	}

	prev := runtime.GOMAXPROCS(1)
	seq, err1 := RunAll(context.Background(), jobs)
	procs := prev
	if procs < 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	par, err2 := RunAll(context.Background(), jobs)
	runtime.GOMAXPROCS(prev)
	if err := errors.Join(err1, err2); err != nil {
		t.Fatal(err)
	}

	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		a, b := seq[i], par[i]
		a.HostNS, b.HostNS = 0, 0
		if a != b {
			t.Errorf("cell %d (%s/%s): results differ between GOMAXPROCS=1 and %d:\nseq: %+v\npar: %+v",
				i, jobs[i].Spec.Name, jobs[i].Tech, procs, a, b)
		}
	}
}

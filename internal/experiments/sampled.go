package experiments

import (
	"context"
	"time"

	"dvr/internal/cpu"
	"dvr/internal/interp"
	"dvr/internal/mem"
	"dvr/internal/sampling"
	"dvr/internal/workloads"
)

// SampleOptions are the sampled-simulation knobs exposed to callers (CLI
// flags, the dvrd API). Zero values pick the ROI-scaled auto defaults —
// see sampling.Options for the policy. The ROI itself is not an option:
// it comes from the spec, exactly as in exact runs.
type SampleOptions struct {
	WindowInsts uint64
	WarmupInsts uint64
	MaxPhases   int
	Replicates  int
}

func (o SampleOptions) options(roi uint64) sampling.Options {
	return sampling.Options{
		ROI:         roi,
		WindowInsts: o.WindowInsts,
		WarmupInsts: o.WarmupInsts,
		MaxPhases:   o.MaxPhases,
		Replicates:  o.Replicates,
	}
}

// RunSampled is RunE's sampled-simulation counterpart: it projects the
// full-ROI result for one benchmark under one technique from
// phase-representative windows instead of simulating the whole ROI. The
// result carries Sampled provenance and must never be cached under an
// exact run's key (see service.CacheKeySampled).
func RunSampled(ctx context.Context, spec workloads.Spec, tech Technique, cfg cpu.Config, so SampleOptions) (cpu.Result, error) {
	if _, err := ParseTechnique(string(tech)); err != nil {
		return cpu.Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return cpu.Result{}, err
	}
	plan, err := newPlan(spec, cfg, so)
	if err != nil {
		return cpu.Result{}, err
	}
	return replayPlan(ctx, plan, spec, tech, cfg)
}

// newPlan builds the spec's workload image and its sampling plan, with the
// branch predictor and caches of cfg warmed along the way.
func newPlan(spec workloads.Spec, cfg cpu.Config, so SampleOptions) (*sampling.Plan, error) {
	base, err := buildWorkload(spec)
	if err != nil {
		return nil, err
	}
	return sampling.NewPlan(base, cfg, so.options(roiOf(spec)))
}

// replayPlan projects one technique from a prepared plan. Plans are
// technique-independent; Matrix-style callers build one per spec and
// replay it per technique — the profile pass and the boundary-capture and
// warming pass are the bulk of a single projection's cost.
func replayPlan(ctx context.Context, plan *sampling.Plan, spec workloads.Spec, tech Technique, cfg cpu.Config) (cpu.Result, error) {
	hostStart := time.Now()
	build := func(fe *interp.Interp, w *workloads.Workload, h *mem.Hierarchy) (cpu.Engine, error) {
		return buildEngine(tech, fe, w, h, cfg)
	}
	res, err := plan.Replay(ctx, cfg, build)
	if err != nil {
		return cpu.Result{}, err
	}
	res.Name = spec.Name
	res.Technique = string(tech)
	res.HostNS = time.Since(hostStart).Nanoseconds()
	// Throughput accounting counts what the timing core actually ran, not
	// the projected total — that is the whole point of sampling.
	simInsts.Add(res.Sampled.SimulatedInsts)
	return res, nil
}

// MatrixSampled is MatrixE's sampled counterpart: every (spec, technique)
// cell projected from a shared per-spec sampling.Plan. Building a plan
// (profile, boundary capture, cache and predictor warming: everything that
// does not depend on the technique) is a task of RunAllE's scheduler like
// any replay, so while one worker builds the next kernel's plan the others
// keep replaying the ready ones (Plan.Replay is safe for concurrent use).
// A plan holds the spec's boundary snapshots and one cache state per
// segment, tens of MB at full ROIs; the scheduler drops it with the row's
// last cell and bounds the live ones by the worker count.
func MatrixSampled(ctx context.Context, specs []workloads.Spec, techs []Technique, cfg cpu.Config, so SampleOptions) (map[string]map[Technique]cpu.Result, error) {
	for _, tech := range techs {
		if _, err := ParseTechnique(string(tech)); err != nil {
			return nil, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	results := make([]cpu.Result, len(specs)*len(techs))
	err := runGrouped(ctx, len(results),
		func(i int) string { return specs[i/len(techs)].Name },
		func(first int) (*sampling.Plan, error) { return newPlan(specs[first/len(techs)], cfg, so) },
		func(ctx context.Context, i int, plan *sampling.Plan) (err error) {
			results[i], err = replayPlan(ctx, plan, specs[i/len(techs)], techs[i%len(techs)], cfg)
			return err
		})
	if err != nil {
		return nil, err
	}
	return byCell(specs, techs, results), nil
}

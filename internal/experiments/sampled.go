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
	plan, err := NewSampledPlan(spec, cfg, so)
	if err != nil {
		return cpu.Result{}, err
	}
	return plan.Replay(ctx, tech)
}

// SampledPlan is everything about a benchmark's sampled projection that
// does not depend on the technique: the built workload image and its
// sampling.Plan (profile, phases, boundary snapshots, and the predictor
// and cache states of cfg at every segment start). The profile pass and
// the boundary-capture and warming pass are the bulk of one projection's
// cost, so a caller with several techniques to project (MatrixSampled, a
// dvrd batch) builds the plan once and calls Replay per technique. A plan
// holds one cache state per segment, tens of MB at full ROIs. Replay is
// safe for concurrent use.
type SampledPlan struct {
	spec workloads.Spec
	cfg  cpu.Config
	plan *sampling.Plan
}

// NewSampledPlan builds spec's workload image and its sampling plan under
// cfg and so.
func NewSampledPlan(spec workloads.Spec, cfg cpu.Config, so SampleOptions) (*SampledPlan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	base, err := buildWorkload(spec)
	if err != nil {
		return nil, err
	}
	plan, err := sampling.NewPlan(base, cfg, so.options(roiOf(spec)))
	if err != nil {
		return nil, err
	}
	return &SampledPlan{spec: spec, cfg: cfg, plan: plan}, nil
}

// Replay projects the plan's benchmark under one technique.
func (p *SampledPlan) Replay(ctx context.Context, tech Technique) (cpu.Result, error) {
	if _, err := ParseTechnique(string(tech)); err != nil {
		return cpu.Result{}, err
	}
	hostStart := time.Now()
	build := func(fe *interp.Interp, w *workloads.Workload, h *mem.Hierarchy) (cpu.Engine, error) {
		return buildEngine(tech, fe, w, h, p.cfg)
	}
	res, err := p.plan.Replay(ctx, p.cfg, build)
	if err != nil {
		return cpu.Result{}, err
	}
	res.Name = p.spec.Name
	res.Technique = string(tech)
	res.HostNS = time.Since(hostStart).Nanoseconds()
	// Throughput accounting counts what the timing core actually ran, not
	// the projected total — that is the whole point of sampling.
	simInsts.Add(res.Sampled.SimulatedInsts)
	return res, nil
}

// MatrixSampled is MatrixE's sampled counterpart: every (spec, technique)
// cell projected from a shared per-spec SampledPlan. Building a plan is a
// task of RunAllE's scheduler like any replay, so while one worker builds
// the next kernel's plan the others keep replaying the ready ones. The
// scheduler drops a plan with the row's last cell and bounds the live ones
// by the worker count.
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
		func(first int) (*SampledPlan, error) { return NewSampledPlan(specs[first/len(techs)], cfg, so) },
		func(ctx context.Context, i int, plan *SampledPlan) (err error) {
			results[i], err = plan.Replay(ctx, techs[i%len(techs)])
			return err
		})
	if err != nil {
		return nil, err
	}
	return byCell(specs, techs, results), nil
}

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

// SampleOptions are the sampled-simulation knobs of a Job, as exposed to
// callers (CLI flags, the dvrd API). Zero values pick the ROI-scaled auto
// defaults — see sampling.Options for the policy. The ROI itself is not an
// option: it comes from the spec, exactly as in exact runs.
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

// SampledPlan is everything about a benchmark's sampled projection that
// does not depend on the technique: the built workload image and its
// sampling.Plan (profile, phases, boundary snapshots, and the predictor
// and cache states of cfg at every segment start). Building it — one
// functional pass over the ROI and a warming walk over that pass's record
// of the stream — is the bulk of one projection's cost, so a caller with
// several techniques to project (RunAll, a dvrd batch) builds the plan
// once and runs one Job per technique with it as Job.Plan. A plan holds
// one cache state per segment, tens of MB at full ROIs; the stream record
// is gone once the plan is built. Jobs may replay one plan concurrently.
type SampledPlan struct {
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
	return &SampledPlan{plan: plan}, nil
}

// replay projects job j, of the plan's benchmark, under its technique.
func (p *SampledPlan) replay(ctx context.Context, j *Job, build Build) (cpu.Result, error) {
	hostStart := time.Now()
	res, err := p.plan.Replay(ctx, j.Cfg, func(fe *interp.Interp, w *workloads.Workload, h *mem.Hierarchy) (cpu.Engine, error) {
		return build(fe, w, h, j.Cfg), nil
	})
	if err != nil {
		return cpu.Result{}, err
	}
	res.Name = j.Spec.Name
	res.Technique = string(j.Tech)
	res.HostNS = time.Since(hostStart).Nanoseconds()
	// Throughput accounting counts what the timing core actually ran, not
	// the projected total — that is the whole point of sampling.
	simInsts.Add(res.Sampled.SimulatedInsts)
	return res, nil
}

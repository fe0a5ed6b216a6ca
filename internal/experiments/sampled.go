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
// callers (CLI flags): sampling.Options under the name dvr/bench uses.
// Zero values pick the ROI-scaled auto defaults. The ROI itself is not an
// option: it comes from the spec, exactly as in exact runs.
type SampleOptions = sampling.Options

// newPlan builds spec's workload image and its sampling plan under cfg and
// so: everything about a sampled projection that does not depend on the
// technique (profile, phases, boundary snapshots, and the predictor and
// cache states of cfg at every segment start). Building it — one
// functional pass over the ROI and a warming walk over that pass's record
// of the stream — is the bulk of one projection's cost, so RunAll builds
// one plan per benchmark, config and options and replays it for every
// technique. A plan holds one cache state per segment, tens of MB at full
// ROIs; the stream record is gone once the plan is built. Jobs may replay
// one plan concurrently.
func newPlan(spec workloads.Spec, cfg cpu.Config, so SampleOptions) (*sampling.Plan, error) {
	base, err := buildWorkload(spec)
	if err != nil {
		return nil, err
	}
	return sampling.NewPlan(base, roiOf(spec), cfg, so)
}

// replay projects job j, of plan's benchmark, under its technique.
func replay(ctx context.Context, plan *sampling.Plan, j *Job, build Build) (cpu.Result, error) {
	hostStart := time.Now()
	res, err := plan.Replay(ctx, func(fe *interp.Interp, w *workloads.Workload, h *mem.Hierarchy) (cpu.Engine, error) {
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

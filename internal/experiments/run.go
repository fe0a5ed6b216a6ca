// Package experiments wires workloads, the core, and the techniques
// together and regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Every simulation is a
// Job: Run runs one, RunAll many; techniques come from a registry
// (techniques.go).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"dvr/internal/cpu"
	"dvr/internal/interp"
	"dvr/internal/trace"
	"dvr/internal/workloads"
)

// simInsts counts simulated (timed) instructions across every run, so the
// benchmark harness can report throughput in simulated MIPS.
var simInsts atomic.Uint64

// SimInstructions returns the total number of timed instructions simulated
// through this package since process start. Sample it before and after a
// workload to compute simulated MIPS.
func SimInstructions() uint64 { return simInsts.Load() }

// ErrUnknownTechnique is wrapped by Run and RunAll when a job names a
// technique nobody registered; the dvrd service maps it to HTTP 400.
var ErrUnknownTechnique = errors.New("experiments: unknown technique")

// errSampledDurable refuses a sampled job that asks for resume,
// checkpoints or tracing: sampling replaces the single continuous run those
// observe with a profile and replay pipeline, so they have nothing coherent
// to attach to.
var errSampledDurable = errors.New("experiments: a sampled job cannot resume, checkpoint or trace")

// Job is one simulation: a benchmark under a technique and a config, and
// how to run it. A Job with zero JobOpts and no sampling times the whole
// ROI once.
type Job struct {
	Spec workloads.Spec
	Tech Technique
	Cfg  cpu.Config

	// JobOpts adds durability (resume, checkpoints, the watchdog) and
	// tracing to an exact run.
	JobOpts

	// Sample projects the result from phase-representative windows instead
	// of timing the whole ROI; Plan does the same over a plan already built
	// for Spec and Cfg, shared with other jobs. A sampled result carries
	// Sampled provenance and must never be cached under an exact run's key
	// (see service.CacheKeySampled).
	Sample *SampleOptions
	Plan   *SampledPlan
}

func (j *Job) sampled() bool { return j.Sample != nil || j.Plan != nil }

// check validates a job and returns its technique's builder. It is the one
// place a job is refused.
func (j *Job) check() (Build, error) {
	build, err := Lookup(j.Tech)
	if err != nil {
		return nil, err
	}
	if err := j.Cfg.Validate(); err != nil {
		return nil, err
	}
	if j.sampled() && (j.Resume != nil || j.CheckpointEvery > 0 || j.Checkpoint != nil || j.Trace != nil) {
		return nil, errSampledDurable
	}
	return build, nil
}

// Run simulates one job. Everything a caller can get wrong comes back as
// an error, never a panic: an unknown technique (ErrUnknownTechnique), a
// degenerate config (the wire-reachable construction panics: zero ROB,
// zero functional units, a predictor allocation bomb), sampling combined
// with resume, checkpoints or tracing, a workload whose build panics.
// Cancelling ctx stops the run early with ctx.Err().
func Run(ctx context.Context, j Job) (cpu.Result, error) {
	build, err := j.check()
	if err != nil {
		return cpu.Result{}, err
	}
	s, err := j.prepare()
	if err != nil {
		return cpu.Result{}, err
	}
	if j.sampled() {
		return s.plan.replay(ctx, &j, build)
	}
	return j.run(ctx, s.w, build)
}

// shared is what a job needs built before it runs, and what the jobs of
// one RunAll group build once: the workload image of exact jobs, or the
// sampling plan of sampled ones.
type shared struct {
	w    *workloads.Workload
	plan *SampledPlan
}

func (j *Job) prepare() (s shared, err error) {
	switch {
	case j.Plan != nil:
		s.plan = j.Plan
	case j.Sample != nil:
		s.plan, err = NewSampledPlan(j.Spec, j.Cfg, *j.Sample)
	default:
		s.w, err = buildWorkload(j.Spec)
	}
	return s, err
}

// RunAll runs the jobs concurrently (one simulation per core) and returns
// the results in job order. Every job is checked before any runs; the
// first failure (a check, a workload that fails to build, a run, ctx
// expiry) cancels the remaining jobs and is returned.
//
// Jobs share what they can. Exact jobs that name the same benchmark run on
// copy-on-write forks of one built image, which is observationally
// identical to a fresh build; sampled jobs that name the same benchmark,
// config and options replay one plan. Building an image or a plan is a
// scheduler task of its own (see runGrouped), so no worker parks behind
// another's build. Spec names are assumed to identify the built workload,
// which holds for every suite in this package (names encode kernel and
// input).
func RunAll(ctx context.Context, jobs []Job) ([]cpu.Result, error) {
	builds := make([]Build, len(jobs))
	keys := make([]string, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		var err error
		if builds[i], err = j.check(); err != nil {
			return nil, err
		}
		switch {
		case j.Plan != nil:
			keys[i] = fmt.Sprintf("plan %p", j.Plan)
		case j.Sample != nil:
			keys[i] = fmt.Sprintf("sampled %s %v %v", j.Spec.Name, j.Cfg, *j.Sample)
		default:
			keys[i] = "exact " + j.Spec.Name
		}
	}
	results := make([]cpu.Result, len(jobs))
	err := runGrouped(ctx, len(jobs),
		func(i int) string { return keys[i] },
		func(first int) (shared, error) { return jobs[first].prepare() },
		func(ctx context.Context, i int, s shared) (err error) {
			if j := &jobs[i]; j.sampled() {
				results[i], err = s.plan.replay(ctx, j, builds[i])
			} else {
				results[i], err = j.run(ctx, s.w.Fork(), builds[i])
			}
			return err
		})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// run times an exact job on w, which it mutates (the main thread commits
// stores into its image): a caller sharing a built image passes a Fork.
// This is the only place a core and an engine are built.
func (j *Job) run(ctx context.Context, w *workloads.Workload, build Build) (cpu.Result, error) {
	var fe *interp.Interp
	if j.Resume != nil {
		// The snapshot carries the complete post-warmup machine state,
		// including every page the warmup wrote, so the frontend starts
		// cold and the restore inside RunWithOptions supplies everything.
		fe = interp.New(w.Prog, w.Mem)
	} else {
		fe = w.Frontend()
	}
	core := cpu.NewCore(j.Cfg, fe)
	eng := build(fe, w, core.Hierarchy(), j.Cfg)
	if j.LivelockAfter > 0 {
		eng = &livelockEngine{inner: eng, after: j.LivelockAfter}
	}
	if eng != nil {
		core.Attach(eng)
	}
	if j.Trace != nil {
		core.Instrument(j.Trace)
	}
	res, err := core.RunWithOptions(ctx, roiOf(j.Spec), cpu.RunOptions{
		Resume:          j.Resume,
		CheckpointEvery: j.CheckpointEvery,
		CheckpointFn:    j.Checkpoint,
		WatchdogBudget:  j.WatchdogBudget,
	})
	res.Name = j.Spec.Name
	res.Technique = string(j.Tech)
	simInsts.Add(res.Instructions)
	return res, err
}

// buildWorkload runs spec.Build with panics converted to errors: a graph
// generator or kernel builder that panics (a registry bug, a hostile
// custom kernel) fails the jobs that need it instead of unwinding the
// caller.
func buildWorkload(spec workloads.Spec) (w *workloads.Workload, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: building %s: %v", spec.Name, r)
		}
	}()
	return spec.Build(), nil
}

// must is how the figure builders, whose inputs are in-process and
// trusted, run their jobs: a failure is a programming error and panics.
// No exported run function panics.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// matrix runs every benchmark under every technique with one config,
// sampled under so when it is non-nil, and returns
// results[benchmark][technique].
func matrix(ctx context.Context, specs []workloads.Spec, techs []Technique, cfg cpu.Config, so *SampleOptions) (map[string]map[Technique]cpu.Result, error) {
	jobs := make([]Job, 0, len(specs)*len(techs))
	for _, sp := range specs {
		for _, tech := range techs {
			jobs = append(jobs, Job{Spec: sp, Tech: tech, Cfg: cfg, Sample: so})
		}
	}
	res, err := RunAll(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[Technique]cpu.Result, len(specs))
	for i, sp := range specs {
		row := make(map[Technique]cpu.Result, len(techs))
		for k, tech := range techs {
			row[tech] = res[i*len(techs)+k]
		}
		out[sp.Name] = row
	}
	return out, nil
}

// roiOf returns the timed instruction budget for a spec.
func roiOf(spec workloads.Spec) uint64 {
	if spec.ROI == 0 {
		return 300_000
	}
	return spec.ROI
}

// Speedup returns b's performance normalized to baseline a (IPC ratio).
// A zero-IPC baseline marks a degenerate run; the ratio is NaN so it
// surfaces as an obvious sentinel in tables instead of silently skewing
// harmonic means (stats.HarmonicMean propagates it).
func Speedup(baseline, b cpu.Result) float64 {
	if baseline.IPC() == 0 {
		return math.NaN()
	}
	return b.IPC() / baseline.IPC()
}

// The six functions below are one-line wrappers over Run and RunAll, kept
// with their signatures because dvr/bench, a module of its own, imports
// them.

// RunE runs the plain job: spec under tech and cfg. A wrapper over Run
// kept for dvr/bench.
func RunE(ctx context.Context, spec workloads.Spec, tech Technique, cfg cpu.Config) (cpu.Result, error) {
	return Run(ctx, Job{Spec: spec, Tech: tech, Cfg: cfg})
}

// RunJob runs the job with durability options. A wrapper over Run kept
// for dvr/bench.
func RunJob(ctx context.Context, spec workloads.Spec, tech Technique, cfg cpu.Config, opts JobOpts) (cpu.Result, error) {
	return Run(ctx, Job{Spec: spec, Tech: tech, Cfg: cfg, JobOpts: opts})
}

// RunTraced runs the job with a trace recorder attached. A wrapper over
// Run kept for dvr/bench.
func RunTraced(ctx context.Context, spec workloads.Spec, tech Technique, cfg cpu.Config, rec *trace.Recorder) (cpu.Result, error) {
	return Run(ctx, Job{Spec: spec, Tech: tech, Cfg: cfg, JobOpts: JobOpts{Trace: rec}})
}

// RunSampled projects the job's result by sampling. A wrapper over Run
// kept for dvr/bench.
func RunSampled(ctx context.Context, spec workloads.Spec, tech Technique, cfg cpu.Config, so SampleOptions) (cpu.Result, error) {
	return Run(ctx, Job{Spec: spec, Tech: tech, Cfg: cfg, Sample: &so})
}

// MatrixE runs every benchmark under every technique with one config and
// returns results[benchmark][technique]. A wrapper over RunAll kept for
// dvr/bench.
func MatrixE(ctx context.Context, specs []workloads.Spec, techs []Technique, cfg cpu.Config) (map[string]map[Technique]cpu.Result, error) {
	return matrix(ctx, specs, techs, cfg, nil)
}

// MatrixSampled is MatrixE with every cell projected by sampling, one
// plan per benchmark. A wrapper over RunAll kept for dvr/bench.
func MatrixSampled(ctx context.Context, specs []workloads.Spec, techs []Technique, cfg cpu.Config, so SampleOptions) (map[string]map[Technique]cpu.Result, error) {
	return matrix(ctx, specs, techs, cfg, &so)
}

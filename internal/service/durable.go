package service

import (
	"context"
	"encoding/json"
	"errors"
	"runtime/debug"
	"sync"

	"dvr/internal/checkpoint"
	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/obs"
	"dvr/internal/service/api"
	"dvr/internal/trace"
	"dvr/internal/workloads"
)

// Durable jobs: with CacheDir and CheckpointEvery configured, every
// running simulation checkpoints its full state to
// <CacheDir>/checkpoints/<key>.ckpt every N committed instructions. The
// checkpoint file is the job's journal — self-describing (engine version,
// workload ref, technique, config, snapshot), integrity-sealed, and
// deleted when the job's result lands in the cache — so a dvrd killed
// mid-batch resumes its interrupted jobs from the latest valid checkpoint
// at the next startup and completes them bit-identically to uninterrupted
// runs. Corrupt checkpoints are quarantined exactly like corrupt spill
// entries; the job restarts from scratch.

// simulate runs one cell inside a pool worker, with whatever durability
// the server is configured for: resume from a valid checkpoint, periodic
// checkpointing, the retirement watchdog, and scripted livelock faults.
// A live pub additionally wires the recorder's OnInterval/OnEvent hooks
// into the job's broadcaster, so subscribers see each interval the moment
// its closing sample lands. The hooks publish without ever blocking, and
// they observe only — the result stays bit-identical under streaming.
func (s *Server) simulate(ctx context.Context, key string, spec workloads.Spec, tech string, cfg cpu.Config, pub *cellPub) (cpu.Result, error) {
	job := experiments.Job{Spec: spec, Tech: experiments.Technique(tech), Cfg: cfg}
	job.WatchdogBudget = s.cfg.WatchdogCycles
	job.LivelockAfter = s.cfg.Faults.LivelockAfter(key)
	onInterval, onEvent := pub.traceHooks()
	var rec *trace.Recorder
	if s.cfg.TraceIntervalEvery > 0 {
		// Interval-only recorder (no event ring): per-cell telemetry for
		// GET /v1/jobs/{id}/trace. Observational — the result is
		// bit-identical with or without it.
		rec = trace.New(trace.Config{IntervalEvery: s.cfg.TraceIntervalEvery,
			OnInterval: onInterval, OnEvent: onEvent})
		job.Trace = rec
	}
	if s.ckpts != nil {
		if st, err := s.ckpts.Load(key); err == nil {
			if merr := st.Matches(api.EngineVersion, spec.Ref, tech, cfg); merr == nil {
				job.Resume = &st.Core
				s.ckptResumed.Add(1)
			} else {
				// The key matched but the journal names a different job
				// (an engine upgrade, a renamed file): useless, drop it.
				_ = s.ckpts.Remove(key)
			}
		}
		job.CheckpointEvery = s.cfg.CheckpointEvery
		job.Checkpoint = func(snap *cpu.Snapshot) error {
			err := s.ckpts.Save(key, &checkpoint.State{
				Engine:    api.EngineVersion,
				Ref:       spec.Ref,
				Technique: tech,
				Config:    cfg,
				Core:      *snap,
			})
			if err != nil {
				// Losing the safety net must not kill the job: the run
				// continues and, if the process dies, restarts from an
				// older checkpoint or from scratch.
				s.ckptErrors.Add(1)
				return nil
			}
			s.ckptWritten.Add(1)
			return nil
		}
	}
	res, err := experiments.Run(ctx, job)
	if job.Resume != nil && (errors.Is(err, cpu.ErrSnapshotMismatch) || errors.Is(err, cpu.ErrCheckpointUnsupported)) {
		// The checkpoint verified and matched but still would not restore
		// (shape drift the digest cannot see). Resume is an optimization,
		// never a correctness requirement: drop it and run from scratch.
		_ = s.ckpts.Remove(key)
		job.Resume = nil
		if rec != nil {
			// Fresh recorder: the aborted attempt must not pollute the
			// from-scratch run's series. Subscribers get a repeated
			// cell-started — the documented "reset this cell's series"
			// signal — before the fresh intervals arrive.
			pub.publish(api.Event{Kind: api.EventCellStarted, Key: key})
			rec = trace.New(trace.Config{IntervalEvery: s.cfg.TraceIntervalEvery,
				OnInterval: onInterval, OnEvent: onEvent})
			job.Trace = rec
		}
		res, err = experiments.Run(ctx, job)
	}
	var le *cpu.LivelockError
	if errors.As(err, &le) {
		s.watchdogTrips.Add(1)
		// Persist the pipeline dump (ROB/IQ/LQ/SQ occupancy, the oldest
		// instruction's timing, MSHRs, the trailing committed PCs) beside
		// the cache, keyed by the job that wedged, for diagnosis afterwards.
		if dump, jerr := json.MarshalIndent(le, "", "  "); jerr == nil {
			publishForensics(s.cfg.Faults.Filesystem(), s.cfg.CacheDir, key, dump)
		}
		// A watchdog trip is a flight-recorder trigger: breadcrumb the
		// wedge into the span ring, then seal the ring beside the pipeline
		// forensics so the dump shows what the fleet was doing around it.
		s.tracer.Event(obs.FromContext(ctx).TraceID(), "livelock", le.Error())
		s.DumpFlight("livelock")
		if s.ckpts != nil {
			// The wedge is deterministic; resuming near it would only trip
			// the watchdog again at the same instruction.
			_ = s.ckpts.Remove(key)
		}
		return cpu.Result{}, err
	}
	if err == nil && s.ckpts != nil {
		// Job complete; the result is the cache's to keep now.
		_ = s.ckpts.Remove(key)
	}
	if err == nil && rec != nil {
		s.traces.Put(key, rec.Intervals())
	}
	return res, err
}

// simulateSampled runs one sampled cell inside a pool worker: it replays
// the technique over the workload's sampling plan, shared with the other
// cells of the cell's batch that simulate the workload; a cell on its own
// (/v1/sim) builds the plan for itself. Sampled jobs deliberately opt out
// of the durability machinery (experiments.Run refuses the combination):
// they are cheap enough to restart from scratch (that is their entire
// point), their projected results have no meaningful per-interval
// telemetry, and the sampling replayer drives cores directly rather than
// through the checkpointable single-run path.
func (s *Server) simulateSampled(ctx context.Context, spec workloads.Spec, tech string, sc simConfig, shared *sharedPlan) (cpu.Result, error) {
	if shared == nil {
		shared = &sharedPlan{}
	}
	plan, err := shared.get(func() (*experiments.SampledPlan, error) {
		s.plansBuilt.Add(1)
		return experiments.NewSampledPlan(spec, sc.cpu, experiments.SampleOptions{
			WindowInsts: sc.so.WindowInsts,
			WarmupInsts: sc.so.WarmupInsts,
			MaxPhases:   sc.so.MaxPhases,
			Replicates:  sc.so.Replicates,
		})
	})
	if err != nil {
		return cpu.Result{}, err
	}
	return experiments.Run(ctx, experiments.Job{Spec: spec, Tech: experiments.Technique(tech), Cfg: sc.cpu, Plan: plan})
}

// sharedPlan is the sampling plan of one workload within one batch: the
// first of the batch's cells of that workload to reach a worker builds it,
// the others replay it, and it is garbage once the last of them returns
// (runBatch, which also decides how many are alive at a time). Sampling
// only pays when the plan, as costly as all of a workload's replays
// together, is amortised over them.
type sharedPlan struct {
	once sync.Once
	plan *experiments.SampledPlan
	err  error
}

// get returns the plan, building it on first use. A failed build fails
// every cell that shares it with the builder's own error: Once counts a
// panicking build as done, so the panic is kept (stack included) for the
// followers before the builder's worker recovers it.
func (p *sharedPlan) get(build func() (*experiments.SampledPlan, error)) (*experiments.SampledPlan, error) {
	p.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				p.err = &PanicError{Value: r, Stack: debug.Stack()}
				panic(r)
			}
		}()
		p.plan, p.err = build()
	})
	return p.plan, p.err
}

// resumePending re-submits every job the startup checkpoint scan found a
// healthy journal for. Each resumed job goes through runCell — the same
// cache / single-flight / pool path as a fresh request — and simulate
// picks the checkpoint back up; its result lands in the cache and the
// checkpoint is deleted, exactly as if the original request had never
// been interrupted. The scan verified and decoded every journal already.
func (s *Server) resumePending(scan checkpoint.Health) {
	for _, key := range scan.Pending {
		st := scan.States[key]
		// The journal is self-describing; re-derive the content address
		// and refuse files that do not name the job they are filed under
		// (a renamed file, a foreign checkpoint dropped in the directory).
		sc := newSimConfig(&st.Config, nil) // a copy: the queued job must not pin the snapshot
		c, err := resolveCell(st.Ref, st.Technique, sc)
		if err != nil || c.key != key {
			_ = s.ckpts.Remove(key)
			continue
		}
		if _, ok := s.cache.Peek(key); ok {
			// Already completed (the result spill survived alongside the
			// checkpoint); nothing to resume.
			_ = s.ckpts.Remove(key)
			continue
		}
		s.jobs.wg.Add(1)
		go func() {
			defer s.jobs.wg.Done()
			_, _, _ = s.runCell(s.rootCtx, c, sc, admitQueue, nil)
		}()
	}
}

package service

import (
	"context"
	"encoding/json"
	"errors"

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
// the server is configured for: the checkpoint journal (resume, periodic
// saves, cleanup; see checkpoint.Journal), the retirement watchdog, and
// scripted livelock faults. A live pub additionally wires the recorder's
// OnInterval/OnEvent hooks into the job's broadcaster, so subscribers see
// each interval the moment it closes. The hooks publish without ever
// blocking, and they observe only — the result stays bit-identical under
// streaming.
func (s *Server) simulate(ctx context.Context, key string, spec workloads.Spec, tech string, cfg cpu.Config, pub *cellPub) (cpu.Result, error) {
	job := experiments.Job{Spec: spec, Tech: experiments.Technique(tech), Cfg: cfg}
	job.WatchdogBudget = s.cfg.WatchdogCycles
	job.LivelockAfter = s.cfg.Faults.LivelockAfter(key)
	if s.cfg.TraceIntervalEvery > 0 {
		// Interval-only recorder (no event ring): per-cell telemetry for
		// GET /v1/jobs/{id}/trace. Observational — the result is
		// bit-identical with or without it.
		onInterval, onEvent := pub.traceHooks()
		job.Trace = trace.New(trace.Config{IntervalEvery: s.cfg.TraceIntervalEvery,
			OnInterval: onInterval, OnEvent: onEvent})
	}
	if s.ckpts != nil {
		job.CheckpointEvery = s.cfg.CheckpointEvery
	}
	res, err := s.ckpts.Journal(key, api.EngineVersion, spec.Ref, tech, cfg).Run(
		func(resume *cpu.Snapshot, save func(*cpu.Snapshot) error) (cpu.Result, error) {
			job.Resume, job.Checkpoint = resume, save
			return experiments.Run(ctx, job)
		})
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
		return cpu.Result{}, err
	}
	if err == nil && job.Trace != nil {
		s.traces.Put(key, job.Trace.Intervals())
	}
	return res, err
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
		sc, err := newSimConfig(&st.Config) // a copy: the queued job must not pin the snapshot
		if err != nil {
			_ = s.ckpts.Remove(key)
			continue
		}
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

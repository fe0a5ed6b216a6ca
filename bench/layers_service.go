package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dvr/internal/checkpoint"
	"dvr/internal/cluster"
	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/faults"
	"dvr/internal/ledger"
	"dvr/internal/obs"
	"dvr/internal/service/api"
	"dvr/internal/stats"
	"dvr/internal/stream"
	"dvr/internal/trace"
	"dvr/internal/workloads"
)

// fleetLayer turns what the traced fleet-cold phase observed from outside —
// the client's own clocks, /metrics deltas, and each job's cluster span
// tree — into the service hops' per-layer rows.
func (r *run) fleetLayer(ctx context.Context, f *fleet, ph coldPhase, before, after []promSample,
	rs0 []runtimeStats, inproc map[string]int64) error {
	sp := r.spans.start("trace.fetch", nil)
	defer sp.end()

	var acceptMS, queueMS, dispatchMS, xcheck []float64
	var events int
	var simBusyUS int64
	simUS := make(map[string]int64) // cache key -> worker.sim span duration
	for _, j := range ph.jobs {
		acceptMS = append(acceptMS, float64(j.accept.Nanoseconds())/1e6)
		events += j.events
		ct, err := r.clusterTrace(ctx, f, j.id)
		if err != nil {
			return err
		}
		for _, sl := range ct.Slices {
			for _, s := range sl.Spans {
				switch s.Name {
				case "worker.queue-wait":
					queueMS = append(queueMS, float64(s.DurUS)/1e3)
				case "worker.sim":
					simBusyUS += s.DurUS
					simUS[s.Attrs.Get("key")] = s.DurUS
				case "frontend.dispatch":
					dispatchMS = append(dispatchMS, float64(s.DurUS)/1e3)
				case "frontend.job":
					// The frontend's own measure of the job, against the
					// client's submit-to-job-done clock.
					if s.DurUS > 0 {
						xcheck = append(xcheck, 100*(float64(j.done.Microseconds())/float64(s.DurUS)-1))
					}
				}
			}
		}
	}
	cells := len(ph.jobs) * len(figTechs)
	if len(queueMS) == 0 || len(dispatchMS) == 0 || len(xcheck) == 0 {
		r.attempt(1)
		r.failf("cluster span trees hold %d queue-wait, %d dispatch and %d job spans for %d jobs",
			len(queueMS), len(dispatchMS), len(xcheck), len(ph.jobs))
		return nil
	}
	r.setLayer("frontend.accept_p50_ms", median(acceptMS), len(acceptMS))
	r.setLayer("frontend.dispatch_p50_ms", median(dispatchMS), len(dispatchMS))
	r.setLayer("service.queue_wait_p50_ms", median(queueMS), len(queueMS))
	r.setLayer("service.sim_busy_frac",
		float64(simBusyUS)/1e6/(ph.elapsed.Seconds()*float64(len(f.workers))), len(simUS))
	r.setLayer("bench.latency_xcheck_pct", median(xcheck), len(xcheck))
	r.setLayer("stream.events_per_op", float64(events)/float64(cells), cells)

	// The same cell through a worker and in-process: what the service adds
	// to a simulation (checkpoints, interval samples, stream publishes).
	var ratios []float64
	for key, hostNS := range inproc {
		if us, ok := simUS[key]; ok && hostNS > 0 {
			ratios = append(ratios, float64(us)*1e3/float64(hostNS))
		}
	}
	if len(ratios) > 0 {
		r.setLayer("service.cold_overhead_ratio", median(ratios), len(ratios))
	}

	// Counters: deltas over everything between the two scrapes (the traced
	// phase and its untraced baseline), per cell of that same stretch.
	var sum promSample = make(promSample)
	perWorker := make([]float64, len(f.workers))
	for i := range after {
		d := after[i].delta(before[i])
		for k, v := range d {
			sum[k] += v
		}
		if i > 0 {
			perWorker[i-1] = d["dvrd_sims_completed_total"]
		}
	}
	sims := sum["dvrd_sims_completed_total"]
	if sims == 0 {
		return fmt.Errorf("workers completed no simulation between the scrapes")
	}
	r.setLayer("ledger.appends", sum["dvrd_ledger_records_total"], int(sims))
	r.setLayer("checkpoint.writes", sum["dvrd_checkpoints_written_total"], int(sims))
	r.setLayer("stream.dropped", sum["dvrd_stream_events_dropped_total"], int(sims))
	r.setLayer("obs.spans_per_op", (sum["dvrd_obs_spans"]+sum["dvrd_obs_spans_dropped_total"])/sims, int(sims))
	r.setLayer("obs.dropped", sum["dvrd_obs_spans_dropped_total"], int(sims))
	r.setLayer("cluster.owner_skew", stats.Max(perWorker)/stats.Mean(perWorker), int(sims))
	r.setLayer("client.retries", float64(f.cli.Retries()), 1)

	rs1, err := r.fleetRuntime(ctx, f)
	if err != nil {
		return err
	}
	var mallocs, gc, rss float64
	for i, p := range f.procs() {
		mallocs += rs1[i].Mallocs - rs0[i].Mallocs
		if rs1[i].GCCPUFraction > gc {
			gc = rs1[i].GCCPUFraction
		}
		rss += p.peakRSSMB()
	}
	r.setLayer("process.allocs_per_op", mallocs/sims, int(sims))
	r.setLayer("process.gc_cpu_frac", gc, len(rs1))
	r.setLayer("process.peak_rss_mb", selfPeakRSSMB()+rss, 1+len(rs1))
	return nil
}

// obsOffSlice runs a short slice of the workload on a second fleet started
// with -trace-spans 0 and reports the default fleet's op latency over it:
// what span recording costs an op.
func (r *run) obsOffSlice(ctx context.Context, on *fleet, onP50 float64) error {
	on.stop()
	sp := r.spans.start("fleet.obs-off", nil)
	defer sp.end()
	off, err := r.startFleet(ctx, sp, 100, true)
	if err != nil {
		return err
	}
	defer off.stop()
	// A fresh fleet has fresh caches, so job numbers may start over.
	ph := r.coldLoop(ctx, off, 0, time.Now().Add(time.Duration(r.o.seconds)*time.Second/3), r.sz.maxJobs, false)
	if s := ph.cellLatency(50); s.N > 0 && s.P50 > 0 {
		r.setLayer("obs.overhead_ratio", onP50/s.P50, s.N)
	}
	return nil
}

// writePathProbes times, in-process and through exported APIs only, the
// write paths a cold job crosses: checkpoint save, interval tracing, ledger
// append, span record, ring lookup and stream publish.
func (r *run) writePathProbes(ctx context.Context, kept []coldCell) error {
	sp := r.spans.start("probes.writepath", nil)
	defer sp.end()
	if len(kept) == 0 {
		return fmt.Errorf("no cell kept for the write-path probes")
	}
	cfg := cpu.DefaultConfig()

	// checkpoint and interval-trace overhead on one DVR cell of the run.
	cell := kept[0]
	for _, c := range kept {
		if c.tech == string(experiments.TechDVR) {
			cell = c
			break
		}
	}
	spec, err := workloads.Resolve(cell.ref)
	if err != nil {
		return err
	}
	base := spec.Build()
	spec.Build = func() *workloads.Workload { return base.Fork() }
	tech := experiments.Technique(cell.tech)
	store, err := checkpoint.NewStore(filepath.Join(r.tmpDir, "probe-ckpt"), faults.OS())
	if err != nil {
		return err
	}
	var saveMS []float64
	var bytes int64
	const reps = 5
	var plain, ckpt, traced []float64
	for i := 0; i < reps; i++ {
		res, err := experiments.RunE(ctx, spec, tech, cfg)
		if err != nil {
			return err
		}
		plain = append(plain, float64(res.HostNS))

		res, err = experiments.RunJob(ctx, spec, tech, cfg, experiments.JobOpts{
			CheckpointEvery: 100_000,
			Checkpoint: func(snap *cpu.Snapshot) error {
				t0 := time.Now()
				err := store.Save("probe", &checkpoint.State{
					Engine: api.EngineVersion, Ref: cell.ref, Technique: cell.tech, Config: cfg, Core: *snap})
				saveMS = append(saveMS, float64(time.Since(t0).Nanoseconds())/1e6)
				if fi, serr := os.Stat(store.Path("probe")); serr == nil {
					bytes = fi.Size()
				}
				return err
			},
		})
		if err != nil {
			return err
		}
		ckpt = append(ckpt, float64(res.HostNS))

		rec := trace.New(trace.Config{IntervalEvery: 10_000})
		res, err = experiments.RunTraced(ctx, spec, tech, cfg, rec)
		if err != nil {
			return err
		}
		traced = append(traced, float64(res.HostNS))
	}
	r.setLayer("checkpoint.overhead_ratio", median(ckpt)/median(plain), reps)
	r.setLayer("trace.interval_overhead_ratio", median(traced)/median(plain), reps)
	if len(saveMS) > 0 {
		r.setLayer("checkpoint.save_ms", median(saveMS), len(saveMS))
		r.setLayer("checkpoint.bytes", float64(bytes), len(saveMS))
	}

	// ledger append: the accepted record of a 6-cell job, as the frontend
	// writes it before every 202.
	lstore, err := ledger.NewStore(filepath.Join(r.tmpDir, "probe-ledger"), faults.OS())
	if err != nil {
		return err
	}
	req := api.BatchRequest{Workloads: []workloads.Ref{cell.ref}, Techniques: techNames(), Async: true}
	n := 200
	if r.o.smoke {
		n = 20
	}
	var appendUS []float64
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("probe-%d", i)
		t0 := time.Now()
		err := lstore.Append(id, ledger.Record{Kind: ledger.KindAccepted, JobID: id, Total: len(figTechs), Request: &req})
		appendUS = append(appendUS, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return err
		}
	}
	r.setLayer("ledger.append_us", median(appendUS), n)

	// span record: a root with one attributed child, into the default ring.
	const calls = 100_000
	tr := obs.New("probe", 4096)
	r.setLayer("obs.span_ns", perCall(3, 2*calls, func() {
		for i := 0; i < calls; i++ {
			root := tr.StartRoot("op")
			root.StartChild("child").Attr("key", cell.key).End()
			root.End()
		}
	}), 3*2*calls)

	// ring lookup: the failover order of one content address.
	ring, err := cluster.New([]string{"http://127.0.0.1:8381", "http://127.0.0.1:8382"}, 0)
	if err != nil {
		return err
	}
	r.setLayer("cluster.prefer_ns", perCall(3, calls, func() {
		for i := 0; i < calls; i++ {
			_ = ring.Prefer(cell.key)
		}
	}), 3*calls)

	// stream publish: one interval event fanned out to one subscriber that
	// never reads, which is the bounded drop-oldest path.
	reg := stream.NewRegistry(stream.Config{})
	defer reg.Close()
	bc := reg.Create("probe")
	sess := bc.Subscribe(stream.SubOptions{})
	defer sess.Close()
	ev := api.Event{Kind: api.EventInterval, Key: cell.key, Interval: &trace.Interval{}}
	r.setLayer("stream.publish_ns", perCall(3, calls, func() {
		for i := 0; i < calls; i++ {
			bc.Publish(ev)
		}
	}), 3*calls)
	return nil
}

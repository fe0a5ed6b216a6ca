package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/service/api"
	"dvr/internal/service/client"
	"dvr/internal/stats"
	"dvr/internal/workloads"
)

// fleet is the README's 3-process cluster: a frontend with -ledger-dir
// routing over two workers (-workers 1 each) that share one -cache-dir and
// checkpoint every 100 000 instructions; tracing flags at their defaults.
type fleet struct {
	frontend *proc
	workers  []*proc
	cli      *client.Client
}

func (f *fleet) procs() []*proc { return append([]*proc{f.frontend}, f.workers...) }

func (f *fleet) stop() {
	f.frontend.stop()
	for _, w := range f.workers {
		w.stop()
	}
}

// startFleet starts the three processes, waits until the frontend sees both
// workers up, and runs a tiny batch over every kernel twice so each worker
// has built the workload images it will fork from (lazy set-up finished
// before timing). spansOff starts every process with -trace-spans 0.
func (r *run) startFleet(ctx context.Context, parent *liveSpan, idx int, spansOff bool) (*fleet, error) {
	dir := filepath.Join(r.tmpDir, fmt.Sprintf("fleet-%d", idx))
	var extra []string
	if spansOff {
		extra = []string{"-trace-spans", "0"}
	}
	sp := r.spans.start("dvrd.start", parent)
	defer sp.end()
	f := &fleet{}
	var urls []string
	for i := 0; i < 2; i++ {
		// -drain-grace only shapes shutdown; zero keeps teardown short.
		args := append([]string{"-role", "worker", "-workers", "1",
			"-cache-dir", filepath.Join(dir, "cache"), "-checkpoint-every", "100000",
			"-drain-grace", "0s"}, extra...)
		w, err := r.procs.start(fmt.Sprintf("worker%d", i+1), r.tracing(), args...)
		if err != nil {
			return nil, err
		}
		f.workers = append(f.workers, w)
		urls = append(urls, w.base)
	}
	for _, w := range f.workers {
		if err := waitHTTP(ctx, r.hc, w.base+"/readyz", "ready"); err != nil {
			return nil, err
		}
	}
	args := append([]string{"-role", "frontend", "-replicas", strings.Join(urls, ","),
		"-ledger-dir", filepath.Join(dir, "ledger")}, extra...)
	fe, err := r.procs.start("frontend", r.tracing(), args...)
	if err != nil {
		return nil, err
	}
	f.frontend = fe
	if err := waitHTTP(ctx, r.hc, fe.base+"/healthz", "ok"); err != nil {
		return nil, err
	}
	if err := r.waitReplicasUp(ctx, fe, len(f.workers)); err != nil {
		return nil, err
	}
	f.cli = client.New(fe.base, client.WithHTTPClient(r.hc))
	sp.end()

	ws := r.spans.start("fleet.warmup", parent)
	defer ws.end()
	for _, roi := range []uint64{2000, 2001} {
		resp, err := f.cli.Batch(ctx, api.BatchRequest{
			Workloads: suiteRefs(r.o.seed, r.sz.graphScale, roi), Techniques: techNames()})
		if err != nil {
			return nil, fmt.Errorf("fleet warm-up: %w", err)
		}
		if resp.Failed != 0 {
			return nil, fmt.Errorf("fleet warm-up: %d cells failed", resp.Failed)
		}
	}
	return f, nil
}

// waitReplicasUp polls the frontend's own view of the fleet until its
// prober has marked n replicas up.
func (r *run) waitReplicasUp(ctx context.Context, fe *proc, n int) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		m, err := scrape(ctx, r.hc, fe.base)
		if err != nil {
			return err
		}
		if int(m[`dvrd_cluster_replicas{state="up"}`]) == n {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("frontend %s never saw %d replicas up", fe.base, n)
}

// coldCell is one cell a fleet job returned, kept for verification.
type coldCell struct {
	ref    workloads.Ref
	tech   string
	key    string
	result cpu.Result
}

// coldJob is what one op of the closed loop observed.
type coldJob struct {
	id       string
	accept   time.Duration // POST to 202
	done     time.Duration // submit to the job-done event
	fetched  time.Duration // submit to the result in hand
	events   int
	cellLats []float64 // ms
	insts    uint64
}

// jobRef returns the workload of job j, the k-th of its stretch: the suite's
// kernels in order, with an ROI no other job of the run shares so no cell is
// ever cached. The seed shapes a job only through the graph (the GAP cells'
// content and, via their content address, their owners). Kernel order and
// ROI offsets are fixed on purpose: which jobs overlap and which worker owns
// a cell set the latency tail, and when the seed reshuffled them op_p95_ms
// moved 16% from seed to seed with no change in the code (5% when fixed).
func (r *run) jobRef(refs []workloads.Ref, j, k int) workloads.Ref {
	ref := refs[k%len(refs)]
	ref.ROI = r.sz.roiFleet + 1 + uint64(j)*7%4096
	return ref
}

// runJob is one op: submit an async 6-cell batch with an idempotency key,
// follow it over SSE to job-done, fetch the result, check it.
func (r *run) runJob(ctx context.Context, f *fleet, ref workloads.Ref, j int, spans *spanLog, keep func(coldCell)) (coldJob, bool) {
	var out coldJob
	cells := len(figTechs)
	r.attempt(cells)
	failJob := func(format string, args ...any) (coldJob, bool) {
		// Every cell of a failed job missed.
		msg := fmt.Sprintf(format, args...)
		for i := 0; i < cells; i++ {
			r.failf("job %d (%s): %s", j, ref.Kernel, msg)
		}
		return out, false
	}

	op := spans.start("op", nil)
	defer op.end()
	req := api.BatchRequest{
		Workloads: []workloads.Ref{ref}, Techniques: techNames(), Async: true,
		IdempotencyKey: fmt.Sprintf("bench-%d-%d", r.o.seed, j),
	}
	sp := spans.start("submit", op)
	t0 := time.Now()
	acc, err := f.cli.Batch(ctx, req)
	out.accept = time.Since(t0)
	sp.end()
	if err != nil {
		return failJob("submit: %v", err)
	}
	if acc.JobID == "" || acc.Deduped {
		return failJob("submit answered job %q deduped=%v", acc.JobID, acc.Deduped)
	}
	out.id = acc.JobID

	sp = spans.start("stream", op)
	st := f.cli.Stream(ctx, acc.JobID, api.StreamOptions{})
	cellDone := make(map[int]time.Duration, cells)
	var streamErr error
	for {
		ev, err := st.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				streamErr = err
			}
			break
		}
		out.events++
		switch ev.Kind {
		case api.EventCellDone:
			cellDone[ev.Cell] = time.Since(t0)
		case api.EventJobDone:
			out.done = time.Since(t0)
			if ev.Error != "" {
				streamErr = errors.New(ev.Error)
			}
		}
	}
	st.Close()
	sp.end()
	if streamErr != nil {
		return failJob("stream: %v", streamErr)
	}
	if out.done == 0 || len(cellDone) != cells {
		return failJob("stream ended with job-done=%v and %d of %d cell-done events", out.done != 0, len(cellDone), cells)
	}

	sp = spans.start("fetch", op)
	status, err := f.cli.Job(ctx, acc.JobID)
	out.fetched = time.Since(t0)
	sp.end()
	if err != nil {
		return failJob("fetch: %v", err)
	}
	if status.State != api.JobDone || status.Batch == nil || len(status.Batch.Cells) != cells {
		return failJob("fetched state %q with batch=%v", status.State, status.Batch != nil)
	}

	sp = spans.start("verify", op)
	defer sp.end()
	width := cpu.DefaultConfig().Width
	ok := true
	for i, c := range status.Batch.Cells {
		switch {
		case c.Error != nil:
			r.failf("job %d cell %d: %s", j, i, c.Error.Error)
			ok = false
		case c.Cached:
			r.failf("job %d cell %d (%s/%s) came from the cache; the workload must stay cold", j, i, ref.Kernel, figTechs[i])
			ok = false
		default:
			if err := checkResult(c.Result, ref.ROI, width); err != nil {
				r.failf("job %d: %v", j, err)
				ok = false
				continue
			}
			out.insts += c.Result.Instructions
			out.cellLats = append(out.cellLats, float64(cellDone[i].Nanoseconds())/1e6)
			keep(coldCell{ref: ref, tech: string(figTechs[i]), key: c.Key, result: c.Result})
		}
	}
	return out, ok
}

// coldPhase is what the closed loop of one timed stretch observed.
type coldPhase struct {
	jobs    []coldJob
	kept    []coldCell // every 16th cell, for the in-process re-run
	issued  int        // jobs started, finished or not
	cycle   int        // jobs in one pass over the suite
	elapsed time.Duration
}

// jobSource hands the closed-loop clients their next job. Kernels differ
// several-fold in cost, so a stretch that ended mid-way through the suite
// would measure whichever kernels happened to fit: jobs are issued in whole
// cycles of the suite, and the source stops at the cycle boundary nearest
// the deadline (or after maxJobs jobs when maxJobs > 0).
type jobSource struct {
	mu       sync.Mutex
	cycle    int
	maxJobs  int
	start    time.Time
	deadline time.Time
	issued   int
	stopped  bool
}

func (s *jobSource) take() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.stopped:
	case s.maxJobs > 0:
		s.stopped = s.issued >= s.maxJobs
	case s.issued > 0 && s.issued%s.cycle == 0:
		perCycle := time.Since(s.start) / time.Duration(s.issued/s.cycle)
		s.stopped = time.Now().Add(perCycle / 2).After(s.deadline)
	}
	if s.stopped {
		return 0, false
	}
	s.issued++
	return s.issued - 1, true
}

// coldLoop runs one timed stretch: clients() clients, each running job after
// job from a shared source. firstJob numbers the stretch's jobs so their ROIs
// stay unique across the stretches of one run.
func (r *run) coldLoop(ctx context.Context, f *fleet, firstJob int, deadline time.Time, maxJobs int, traced bool) coldPhase {
	refs := suiteRefs(r.o.seed, r.sz.graphScale, r.sz.roiFleet)
	var (
		mu  sync.Mutex
		ph  coldPhase
		all []coldCell
		wg  sync.WaitGroup
	)
	var spans *spanLog
	if traced {
		spans = r.spans
	}
	keep := func(c coldCell) {
		mu.Lock()
		all = append(all, c)
		mu.Unlock()
	}
	src := &jobSource{cycle: len(refs), maxJobs: maxJobs, start: time.Now(), deadline: deadline}
	for c := 0; c < r.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k, ok := src.take()
				if !ok {
					return
				}
				j := firstJob + k
				job, ok := r.runJob(ctx, f, r.jobRef(refs, j, k), j, spans, keep)
				if ok {
					mu.Lock()
					ph.jobs = append(ph.jobs, job)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(src.start)
	ph.issued, ph.cycle = src.issued, src.cycle
	// A deterministic choice of cells to re-run, whatever order they
	// finished in.
	sort.Slice(all, func(a, b int) bool { return all[a].key < all[b].key })
	for i := 0; i < len(all); i += 16 {
		ph.kept = append(ph.kept, all[i])
	}
	return ph
}

// fleetCold: async never-cached 6-cell jobs through the real fleet. One op
// is one cell (submit to its cell-done event); one batch is the 78-cell
// figure, one job per kernel.
func (r *run) fleetCold(ctx context.Context) error {
	var (
		setups []float64
		f      *fleet
	)
	for i := 0; i < r.sz.setupReps; i++ {
		if f != nil {
			f.stop()
		}
		sp := r.spans.start("setup", nil)
		t0 := time.Now()
		nf, err := r.startFleet(ctx, sp, i, false)
		sp.end()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		f = nf
	}
	r.setE2E("setup_s", median(setups), len(setups))

	before, err := r.scrapeFleet(ctx, f)
	if err != nil {
		return err
	}
	var rs0 []runtimeStats
	if r.tracing() {
		if rs0, err = r.fleetRuntime(ctx, f); err != nil {
			return err
		}
	}
	budget := time.Duration(r.o.seconds) * time.Second
	var untraced coldPhase
	if r.tracing() {
		untraced = r.coldLoop(ctx, f, 0, time.Now().Add(budget/3), r.sz.maxJobs, false)
		budget /= 2
	}
	ph := r.coldLoop(ctx, f, untraced.issued, time.Now().Add(budget), r.sz.maxJobs, r.tracing())
	after, err := r.scrapeFleet(ctx, f)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(ph.jobs) == 0 {
		return fmt.Errorf("no job completed")
	}

	var jobS []float64
	var insts uint64
	for _, j := range ph.jobs {
		jobS = append(jobS, j.fetched.Seconds())
		insts += j.insts
	}
	// The figure's wall-clock is one job per kernel, one after the other
	// (submit to result in hand). Jobs are issued in whole cycles of the
	// suite, so their mean weighs every kernel equally; the mean, unlike the
	// median of this multimodal mix, does not jump between kernels from run
	// to run.
	lat := ph.cellLatency(95)
	r.setE2E("wall_s", stats.Mean(jobS)*float64(ph.cycle), len(jobS))
	r.setE2E("sim_mips", float64(insts)/ph.elapsed.Seconds()/1e6, lat.N)
	r.setE2E("ops_per_s", float64(lat.N)/ph.elapsed.Seconds(), lat.N)
	r.setOpLatency(lat)

	// Nothing may have been served from a cache, and the fleet must have
	// simulated each cell exactly once.
	var hits, sims float64
	for i := range f.workers {
		d := after[i+1].delta(before[i+1])
		hits += d["dvrd_cache_hits_total"]
		sims += d["dvrd_sims_completed_total"]
	}
	submitted := float64((ph.issued + untraced.issued) * len(figTechs))
	r.attempt(1)
	if hits != 0 || sims != submitted {
		r.failf("workers report %g cache hits and %g simulations for %g cells; want no hit and one simulation per cell", hits, sims, submitted)
	}

	inproc, err := r.rerunKept(ctx, ph.kept)
	if err != nil {
		return err
	}
	if !r.tracing() {
		return nil
	}
	r.setLayer("service.cache_hit_ratio", hits/(hits+sims), int(hits+sims))
	if u := untraced.cellLatency(50); u.N > 0 {
		r.setLayer("bench.trace_overhead_pct", 100*(lat.P50/u.P50-1), lat.N)
	}
	if err := r.fleetLayer(ctx, f, ph, before, after, rs0, inproc); err != nil {
		return err
	}
	if err := r.obsOffSlice(ctx, f, lat.P50); err != nil {
		return err
	}
	return r.writePathProbes(ctx, ph.kept)
}

// cellLatency summarises the stretch's op latencies, pooled: which worker
// owns a cell, and so how long it queues, changes with every job's ROI, so
// a cell has no latency of its own to take a median of.
func (ph coldPhase) cellLatency(want float64) latencySummary {
	var ms []float64
	for _, j := range ph.jobs {
		ms = append(ms, j.cellLats...)
	}
	return summarize(ms, want)
}

// scrapeFleet scrapes the frontend (index 0) and each worker.
func (r *run) scrapeFleet(ctx context.Context, f *fleet) ([]promSample, error) {
	var out []promSample
	for _, p := range f.procs() {
		s, err := scrape(ctx, r.hc, p.base)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (r *run) fleetRuntime(ctx context.Context, f *fleet) ([]runtimeStats, error) {
	var out []runtimeStats
	for _, p := range f.procs() {
		rs, err := p.runtimeStats(ctx, r.hc)
		if err != nil {
			return nil, err
		}
		out = append(out, rs)
	}
	return out, nil
}

// rerunKept re-runs the kept cells in-process and requires each to be
// bit-identical to what the fleet returned, under Canonical. It returns the
// in-process host time per cache key.
func (r *run) rerunKept(ctx context.Context, kept []coldCell) (map[string]int64, error) {
	bases := make(map[string]*workloads.Workload)
	host := make(map[string]int64, len(kept))
	cfg := cpu.DefaultConfig()
	for _, c := range kept {
		spec, err := workloads.Resolve(c.ref)
		if err != nil {
			return nil, err
		}
		base := bases[c.ref.Kernel]
		if base == nil {
			base = spec.Build()
			bases[c.ref.Kernel] = base
		}
		spec.Build = func() *workloads.Workload { return base.Fork() }
		res, err := experiments.RunE(ctx, spec, experiments.Technique(c.tech), cfg)
		if err != nil {
			return nil, err
		}
		r.attempt(1)
		if !reflect.DeepEqual(res.Canonical(), c.result.Canonical()) {
			r.failf("%s/%s ROI %d: the fleet's result differs from the in-process run", c.ref.Kernel, c.tech, c.ref.ROI)
		}
		host[c.key] = res.HostNS
	}
	return host, nil
}

// clusterTrace fetches the fleet-merged span tree of one job.
func (r *run) clusterTrace(ctx context.Context, f *fleet, jobID string) (api.ClusterTrace, error) {
	var ct api.ClusterTrace
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.frontend.base+"/v1/jobs/"+jobID+"/trace?view=cluster", nil)
	if err != nil {
		return ct, err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return ct, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ct, fmt.Errorf("cluster trace of %s: %s", jobID, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&ct)
	return ct, err
}

// Package service implements dvrd, the cached, concurrent simulation
// service: an HTTP/JSON server that accepts declarative simulation jobs
// (workloads.Ref + technique + cpu.Config), runs them on a bounded worker
// pool with per-request deadlines that cancel in-flight simulations, and
// deduplicates identical jobs twice over — a content-addressed result
// cache for repeated jobs, single-flight collapsing for concurrent ones.
// The wire types live in internal/service/api; a Go client in
// internal/service/client.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dvr/internal/checkpoint"
	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/faults"
	"dvr/internal/obs"
	"dvr/internal/sealed"
	"dvr/internal/service/api"
	"dvr/internal/trace"
	"dvr/internal/workloads"
)

// Config sizes the server.
type Config struct {
	Common
	// Workers bounds concurrent simulations; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds tasks waiting for a worker; 0 means 256.
	QueueDepth int
	// CacheEntries bounds the in-memory result cache; 0 means 4096.
	CacheEntries int
	// CacheDir, when set, spills cached results to disk as
	// <dir>/<key>.json and reads them back on memory misses.
	CacheDir string
	// CheckpointEvery, when nonzero (and CacheDir is set), checkpoints
	// every running simulation to <CacheDir>/checkpoints/<key>.ckpt each
	// N committed instructions; interrupted jobs resume from their latest
	// valid checkpoint at the next startup.
	CheckpointEvery uint64
	// WatchdogCycles, when nonzero, aborts any simulation that commits no
	// instruction for this many cycles with a typed livelock error and a
	// forensics dump under <CacheDir>/forensics/.
	WatchdogCycles uint64
	// TraceIntervalEvery, when nonzero, attaches an interval sampler to
	// every simulation (one sample per N committed instructions) and keeps
	// each cell's series in the trace store, served at
	// GET /v1/jobs/{id}/trace. 0 disables tracing. Tracing is
	// observational: results are bit-identical either way.
	TraceIntervalEvery uint64
}

// baseEntries bounds the memoized built workload images; traceEntries the
// in-memory trace store (with CacheDir set, series also spill to
// <dir>/traces/).
const (
	baseEntries  = 32
	traceEntries = 1024
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	return c
}

// Server is the dvrd service — the single node, or a worker replica
// behind a frontend. Its core serves the HTTP routes; the server answers
// cells by simulating them. Construct with New, mount Handler, and call
// Shutdown to drain.
type Server struct {
	core
	cfg    Config
	cache  *resultCache
	flight *flightGroup[cpu.Result]
	pool   *pool
	bases  *baseCache

	// ckpts is the durable checkpoint store (nil when disabled);
	// ckptHealth is its startup scan, less the decoded states.
	ckpts      *checkpoint.Store
	ckptHealth checkpoint.Health

	// traces holds per-cell interval telemetry (empty when tracing is
	// disabled); queueHist is the queue-wait histogram.
	traces    *spillCache[[]trace.Interval]
	queueHist *histogram

	startInsts uint64
	sfRetries  atomic.Uint64 // single-flight followers that re-ran after a leader error
	simsDone   atomic.Uint64 // detailed simulations run to completion and committed

	watchdogTrips atomic.Uint64 // simulations aborted by the retirement watchdog
}

// New builds a server. It starts the worker pool immediately; with
// checkpointing configured it also scans the checkpoint directory and
// resumes any jobs a previous process left interrupted.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		cache:      newResultCache(cfg.CacheEntries, cfg.CacheDir, cfg.Faults.Filesystem()),
		flight:     newFlightGroup[cpu.Result](),
		pool:       newPool(cfg.Workers, cfg.QueueDepth),
		bases:      &baseCache{entries: newLRU[*baseEntry](baseEntries)},
		startInsts: experiments.SimInstructions(),
	}
	s.core.init(s, "worker", workerExposition, cfg.Common, cfg.CacheDir)
	s.queueHist = s.histogram("dvrd_queue_wait_seconds")
	traceDir := ""
	if cfg.TraceIntervalEvery > 0 && cfg.CacheDir != "" {
		traceDir = filepath.Join(cfg.CacheDir, "traces")
	}
	s.traces = newSpillCache[[]trace.Interval](traceEntries, traceDir, cfg.Faults.Filesystem(), nil)
	if cfg.CacheDir != "" && cfg.CheckpointEvery > 0 {
		store, err := checkpoint.NewStore(filepath.Join(cfg.CacheDir, "checkpoints"), cfg.Faults.Filesystem())
		if err == nil {
			s.ckpts = store
			s.ckptHealth = store.Scan()
			s.resumePending(s.ckptHealth)
			s.ckptHealth.States = nil // the resumed jobs hold what they need
		}
		// An unopenable checkpoint dir disables durability, not the server.
	}
	return s
}

// SpillHealth reports the startup scan of the spill directory (zero when
// no -cache-dir is configured).
func (s *Server) SpillHealth() sealed.Health { return s.cache.health }

// CheckpointHealth reports the startup scan of the checkpoint directory
// (zero when checkpointing is disabled). Pending lists the interrupted
// jobs found journaled at boot; the server resumes them in the background.
func (s *Server) CheckpointHealth() checkpoint.Health { return s.ckptHealth }

// ---- the worker's dispatch ----

// answerCell answers an interactive /v1/sim cell: a cache hit needs no
// worker, and a miss on a full queue is shed rather than parking the
// connection.
func (s *Server) answerCell(ctx context.Context, _ api.SimRequest, c cell, sc simConfig) (api.SimResponse, []byte, error) {
	return s.runCell(ctx, c, sc, admitShed, nil)
}

// answerBatch runs an async job's batch as it is. A synchronous batch is
// interactive: with the queue already full it is shed whole up front
// instead of parking its every cell behind it. (Async batches answer 202
// at once; their cells queue in the background by design.)
func (s *Server) answerBatch(ctx context.Context, _ api.BatchRequest, cells []cell, sc simConfig, j *job) (*api.BatchResponse, [][]byte, error) {
	if j == nil && s.pool.Saturated() {
		s.pool.shed.Add(1)
		return nil, nil, errOverloaded
	}
	return s.runBatch(ctx, cells, sc, j)
}

func (s *Server) snapshot() any { return s.Metrics() }

// stop closes the worker pool, draining any queued tasks.
func (s *Server) stop() { s.pool.Close() }

// ---- cell execution ----

// admission selects how a cell enters the worker pool: interactive
// /v1/sim requests shed on a full queue (429 + Retry-After) so the
// connection never stalls; batch cells queue and wait — the batch was
// admitted as one request at the handler, and shedding its individual
// cells would tear half-finished matrices apart.
type admission int

const (
	admitShed admission = iota
	admitQueue
)

// runCell answers one cell: from the result cache when possible (hitCell),
// otherwise by simulating it (missCell). body is non-nil on a cache hit:
// the stored bytes that encode resp.
func (s *Server) runCell(ctx context.Context, c cell, sc simConfig, adm admission, pub *cellPub) (resp api.SimResponse, body []byte, err error) {
	if resp, body, ok := s.hitCell(ctx, c, pub); ok {
		return resp, body, nil
	}
	resp, err = s.missCell(ctx, c, sc, adm, pub)
	return resp, nil, err
}

// hitCell is the lookup a cell is accounted by. On a hit it returns the
// response and the body the cache stored for it, and replays the cell's
// stored telemetry to pub. A non-nil pub streams the cell's lifecycle and
// telemetry to its job's subscribers.
func (s *Server) hitCell(ctx context.Context, c cell, pub *cellPub) (api.SimResponse, []byte, bool) {
	pub.publish(api.Event{Kind: api.EventCellStarted, Key: c.key})
	e, ok := s.cache.Get(c.key)
	if !ok {
		return api.SimResponse{}, nil, false
	}
	obs.FromContext(ctx).StartChild("worker.cache-hit").
		Attr("key", c.key).Attr("bench", c.spec.Ref.Kernel).Attr("technique", c.tech).End()
	s.replayTrace(pub, c.key, true)
	return api.SimResponse{Key: c.key, Cached: true, Result: e.Result}, e.body, true
}

// missCell simulates a cell the cache did not hold, via single-flight on
// its content address and the worker pool. The result stored and returned
// is canonical (deterministic), so repeated requests are byte-identical.
// Cells answered by another request's flight replay their stored series to
// pub instead of streaming live.
func (s *Server) missCell(ctx context.Context, c cell, sc simConfig, adm admission, pub *cellPub) (api.SimResponse, error) {
	key, tech, bench := c.key, c.tech, c.spec.Ref.Kernel
	simulate := func() (cpu.Result, error) {
		// Re-check under the flight: a just-landed leader may have filled
		// the cache between our miss and here. Peek, not Get — this
		// request's miss is already counted.
		if res, ok := s.cache.Peek(key); ok {
			return res, nil
		}
		runSpec := s.bases.memoize(c.spec)
		var (
			out    cpu.Result
			runErr error
		)
		enqueued := time.Now()
		task := func() {
			// Queue wait = admission to worker pickup: the span and
			// histogram the capacity dashboards watch.
			wait := time.Since(enqueued)
			parent := obs.FromContext(ctx)
			s.queueHist.observeTraced(wait, parent.TraceID())
			parent.StartChildAt("worker.queue-wait", enqueued).End()
			sp := spansFrom(ctx)
			sp.addQueueWait(wait)
			// The fault hook runs inside the worker so scripted panics
			// and slowdowns exercise the same recover/occupancy paths a
			// real simulator bug would.
			s.cfg.Faults.Sim(key)
			simStart := time.Now()
			ssp := parent.StartChild("worker.sim").
				Attr("key", key).Attr("bench", bench).Attr("technique", tech)
			out, runErr = s.simulate(ctx, key, runSpec, tech, sc.cpu, pub)
			ssp.Fail(runErr).End()
			sp.addSim(time.Since(simStart))
		}
		var err error
		if adm == admitShed {
			err = s.pool.TryDo(ctx, task)
		} else {
			err = s.pool.Do(ctx, task)
		}
		if err != nil {
			return cpu.Result{}, err
		}
		if runErr != nil {
			return cpu.Result{}, runErr
		}
		canon := out.Canonical()
		s.cache.Put(key, canon)
		// Counted only here — after the run committed its result — so a
		// simulation aborted mid-flight (caller gone, frontend crash) never
		// inflates it. Unlike CacheMisses, which counts at lookup time, the
		// fleet-wide sum of SimsCompleted equals the number of unique cells
		// even when a crash cancels in-flight work: that is the exactly-once
		// invariant the resume smoke asserts.
		s.simsDone.Add(1)
		return canon, nil
	}
	res, shared, err := s.flight.Do(ctx, key, simulate)
	if err != nil && shared && ctx.Err() == nil {
		// The leader failed for reasons of its own (panic, shed, its
		// context); this follower's request is still live, so retry once
		// as a potential new leader. The cache absorbs the case where the
		// leader actually succeeded before dying.
		s.sfRetries.Add(1)
		res, _, err = s.flight.Do(ctx, key, simulate)
	}
	if err != nil {
		var pe *PanicError
		if errors.As(err, &pe) {
			// A recovered worker panic is exactly what the flight recorder
			// exists for: breadcrumb the event into the ring, then seal the
			// ring to disk while the evidence is fresh.
			s.tracer.Event(obs.FromContext(ctx).TraceID(), "panic", pe.Error())
			s.DumpFlight("panic")
		}
		return api.SimResponse{}, err
	}
	if shared {
		// A follower never saw the leader's live samples (the leader may
		// even belong to a different job); the leader stored the series
		// before its flight resolved, so replay it here.
		s.replayTrace(pub, key, false)
	}
	// A follower's result came from the in-flight leader, not the cache;
	// report it uncached (metrics count it under single_flight_shared).
	return api.SimResponse{Key: key, Cached: false, Result: res}, nil
}

// runBatch answers a batch's resolved cells (the Workloads×Techniques
// matrix row-major, or the explicit Cells form — see
// api.BatchRequest.CellList). Cached cells are answered in place, in
// order; the others run concurrently (the pool bounds actual simulation
// parallelism). A recovered worker panic fails only its own cell — the
// cell carries a typed api.Error and the rest of the batch completes —
// while systemic failures (deadline, shutdown) cancel the batch.
// bodies[i] is cell i's stored encoding when it was a cache hit, nil
// otherwise (encodeBatch).
func (s *Server) runBatch(ctx context.Context, resolved []cell, sc simConfig, j *job) (out *api.BatchResponse, bodies [][]byte, err error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cells := make([]api.SimResponse, len(resolved))
	bodies = make([][]byte, len(resolved))
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for idx, c := range resolved {
		var pub *cellPub
		if j != nil {
			pub = &cellPub{j: j, cell: idx, bench: c.spec.Ref.Kernel, tech: c.tech}
		}
		if resp, body, ok := s.hitCell(ctx, c, pub); ok {
			cells[idx], bodies[idx] = resp, body
			pub.done(resp)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.missCell(ctx, c, sc, admitQueue, pub)
			var (
				pe *PanicError
				le *cpu.LivelockError
			)
			switch {
			case err == nil:
			case errors.As(err, &pe) || errors.As(err, &le):
				// Isolated crash or wedge of this one cell: report
				// it in place and let the rest of the batch finish.
				resp = api.SimResponse{Key: c.key, Error: &api.Error{Code: api.CodeInternal, Error: err.Error()}}
			default:
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
				return
			}
			cells[idx] = resp
			pub.done(resp)
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return tally(cells), bodies, nil
}

// Metrics snapshots the service counters. The cache pair is read under
// the cache lock and the clock is read once, so one snapshot is
// internally consistent (the core serves it at /metrics as JSON or
// Prometheus text).
func (s *Server) Metrics() api.Metrics {
	now := time.Now()
	uptime := now.Sub(s.start).Seconds()
	hits, misses := s.cache.counters()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	insts := experiments.SimInstructions()
	mips := 0.0
	if uptime > 0 {
		mips = float64(insts-s.startInsts) / uptime / 1e6
	}
	active, finished := s.jobs.counts()
	sm := s.streams.Snapshot()
	var ckptWritten, ckptResumed, ckptErrors, ckptQuarantined uint64
	if c := s.ckpts; c != nil {
		ckptWritten, ckptResumed, ckptErrors, ckptQuarantined = c.Written(), c.Resumed(), c.WriteErrors(), c.Quarantined()
	}
	return api.Metrics{
		UptimeSeconds:      uptime,
		Workers:            s.cfg.Workers,
		BusyWorkers:        s.pool.Busy(),
		QueueDepth:         s.pool.QueueDepth(),
		CacheEntries:       s.cache.Len(),
		CacheHits:          hits,
		CacheMisses:        misses,
		CacheHitRate:       hitRate,
		SingleFlightShared: s.flight.Shared(),
		SimsCompleted:      s.simsDone.Load(),
		JobsActive:         active,
		JobsDone:           finished,
		SimInstructions:    insts,
		SimMIPS:            mips,

		DeadlineRejected: s.deadlineRejected.Load(),

		PanicsRecovered:     s.pool.Panics(),
		ShedTotal:           s.pool.Shed(),
		SingleFlightRetries: s.sfRetries.Load(),
		SpillQuarantined:    s.cache.Quarantined(),

		CheckpointsWritten:     ckptWritten,
		CheckpointsResumed:     ckptResumed,
		CheckpointWriteErrors:  ckptErrors,
		CheckpointsQuarantined: ckptQuarantined,
		WatchdogTrips:          s.watchdogTrips.Load(),

		RequestsTotal:   s.reqTotal.Load(),
		TracesStored:    s.traces.Len(),
		ObsSpans:        s.tracer.Len(),
		ObsSpansDropped: s.tracer.Dropped(),
		IdempotentHits:  s.idemHits.Load(),

		StreamSessionsActive:  sm.SessionsActive,
		StreamSessionsOpened:  sm.SessionsOpened,
		StreamEventsPublished: sm.EventsPublished,
		StreamEventsDropped:   sm.EventsDropped,
		StreamSessions:        sm.Sessions,
	}
}

// publishForensics atomically publishes <dir>/forensics/<name>.json and
// returns its path, or "" when no dir is configured or the write failed.
func publishForensics(fsys faults.FS, dir, name string, data []byte) string {
	if dir == "" {
		return ""
	}
	st, err := sealed.Open(filepath.Join(dir, "forensics"), ".json", fsys)
	if err != nil || st.Put(name, data) != nil {
		return ""
	}
	return st.Path(name)
}

// ---- built-workload memoization ----

// baseCache memoizes built workload images by their ref identity (kernel +
// graph; the image does not depend on the ROI), bounded by an LRU. Every
// simulation runs on a copy-on-write Fork of the shared base — the same
// sharing discipline as experiments.RunAll — so a batch over one graph
// builds it once, not once per cell. Evicting a base while forks of it are
// running is safe: the forks hold their own references.
type baseCache struct {
	mu      sync.Mutex
	entries *lru[*baseEntry]
}

type baseEntry struct {
	once sync.Once
	w    *workloads.Workload
}

// memoize wraps spec.Build to build the base image at most once per cache
// residency and hand out forks.
func (b *baseCache) memoize(spec workloads.Spec) workloads.Spec {
	ref := spec.Ref
	ref.ROI = 0
	keyBytes, err := json.Marshal(ref)
	if err != nil {
		return spec
	}
	key := string(keyBytes)
	b.mu.Lock()
	entry, ok := b.entries.get(key)
	if !ok {
		entry = &baseEntry{}
		b.entries.put(key, entry)
	}
	b.mu.Unlock()
	build := spec.Build
	spec.Build = func() *workloads.Workload {
		entry.once.Do(func() { entry.w = build() })
		return entry.w.Fork()
	}
	return spec
}

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
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
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
	"dvr/internal/stream"
	"dvr/internal/trace"
	"dvr/internal/workloads"
)

var (
	errShuttingDown = errors.New("service: shutting down")
	// errOverloaded is the load-shed signal: the worker queue is full, so
	// the request is rejected 429 + Retry-After instead of stalling the
	// connection behind every queued job. Jobs are idempotent by cache
	// key, so clients retry safely (internal/service/client does).
	errOverloaded = errors.New("service: overloaded: simulation queue is full")
)

// retryAfterSeconds is the hint sent with 429/503 responses. Simulations
// are short relative to human patience but long relative to a network
// round trip; one second keeps honest clients from busy-spinning without
// parking them needlessly.
const retryAfterSeconds = 1

// minDeadlineBudget is the smallest propagated deadline budget worth
// admitting: below it the request is doomed — any work started would be
// abandoned before it could answer — so the server rejects 504
// immediately and the upstream's own deadline machinery takes over.
const minDeadlineBudget = 2 * time.Millisecond

// errDeadlineBudget is the typed doomed-request rejection; it wraps
// context.DeadlineExceeded so the existing status/code mapping answers
// 504 api.CodeTimeout.
var errDeadlineBudget = fmt.Errorf("service: deadline budget exhausted: %w", context.DeadlineExceeded)

// deadlineBudget parses the X-Deadline-Ms header: the client's remaining
// deadline at send time, shrunk hop by hop. ok is false when the header
// is absent or malformed (a malformed budget is ignored, not fatal — the
// request still has timeout_ms and the server default).
func deadlineBudget(r *http.Request) (time.Duration, bool) {
	h := r.Header.Get(api.HeaderDeadlineMS)
	if h == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// Config sizes the server.
type Config struct {
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
	// DefaultTimeout bounds requests that do not set timeout_ms; 0 means
	// 5 minutes.
	DefaultTimeout time.Duration
	// BaseEntries bounds the memoized built workload images; 0 means 32.
	BaseEntries int
	// Faults injects scripted failures (chaos tests); nil means none.
	Faults *faults.Injector
	// Logger receives one structured line per request (id, status, span
	// timings); nil discards them.
	Logger *slog.Logger
	// TraceIntervalEvery, when nonzero, attaches an interval sampler to
	// every simulation (one sample per N committed instructions) and keeps
	// each cell's series in the trace store, served at
	// GET /v1/jobs/{id}/trace. 0 disables tracing. Tracing is
	// observational: results are bit-identical either way.
	TraceIntervalEvery uint64
	// TraceEntries bounds the in-memory trace store; 0 means 1024. With
	// CacheDir set, series also spill to <dir>/traces/.
	TraceEntries int
	// StreamReplay bounds each job's replay ring — the Last-Event-ID
	// resume window of GET /v1/jobs/{id}/stream; 0 means 4096 events.
	StreamReplay int
	// StreamBuffer is the default per-subscriber delivery buffer; 0 means
	// 1024 events. A subscriber that falls further behind loses its oldest
	// undelivered events (counted at /metrics).
	StreamBuffer int
	// StreamTTL reaps stream sessions not polled for this long (a wedged
	// proxy, an abandoned connection); 0 means 60s.
	StreamTTL time.Duration
	// StreamHeartbeat is the SSE comment-keepalive interval on quiet
	// streams; 0 means 15s.
	StreamHeartbeat time.Duration
	// TraceSpans, when nonzero, enables distributed tracing: the server
	// continues propagated X-Trace-Ctx contexts, collects finished spans
	// in a bounded ring of this capacity (served at GET /v1/spans, dumped
	// by the flight recorder), and stamps trace_id/span_id onto its log
	// lines. 0 disables span tracing at zero cost on the request path.
	TraceSpans int
	// ProcName labels this process's spans in fleet trace views (e.g.
	// "worker@127.0.0.1:8381"); "" means "worker".
	ProcName string
}

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
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.BaseEntries <= 0 {
		c.BaseEntries = 32
	}
	if c.TraceEntries <= 0 {
		c.TraceEntries = 1024
	}
	if c.StreamHeartbeat <= 0 {
		c.StreamHeartbeat = 15 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	return c
}

// Server is the dvrd service. Construct with New, mount Handler, and call
// Shutdown to drain.
type Server struct {
	cfg    Config
	cache  *resultCache
	flight *flightGroup[cpu.Result]
	pool   *pool
	jobs   *jobStore
	bases  *baseCache

	// rootCtx parents every async job (and boot-time resume); Abort
	// cancels it — the in-process analogue of SIGKILL for chaos tests.
	rootCtx    context.Context
	rootCancel context.CancelFunc

	// draining flips when graceful shutdown begins: /readyz answers 503 so
	// a frontend stops routing new cells here while in-flight work — which
	// this worker still owns — finishes.
	draining atomic.Bool

	// ckpts is the durable checkpoint store (nil when disabled);
	// ckptHealth is its startup scan, less the decoded states.
	ckpts      *checkpoint.Store
	ckptHealth checkpoint.Health

	// streams owns the per-job broadcasters behind GET
	// /v1/jobs/{id}/stream and the TTL janitor reaping idle sessions.
	streams *stream.Registry

	// traces holds per-cell interval telemetry (empty when tracing is
	// disabled); tracer is the distributed-tracing span collector (nil
	// when disabled); logger, reqSeq and the histograms back the request
	// observability layer (observe.go).
	traces    *spillCache[[]trace.Interval]
	tracer    *obs.Tracer
	logger    *slog.Logger
	reqSeq    atomic.Uint64
	reqTotal  atomic.Uint64
	reqHist   *histogram
	queueHist *histogram

	start      time.Time
	startInsts uint64
	sfRetries  atomic.Uint64 // single-flight followers that re-ran after a leader error
	simsDone   atomic.Uint64 // detailed simulations run to completion and committed
	plansBuilt atomic.Uint64 // sampling plans built (simulateSampled)

	// adm is the AIMD admission controller gating interactive requests;
	// deadlineRejected counts doomed requests rejected 504 on arrival.
	adm              *aimd
	deadlineRejected atomic.Uint64

	ckptWritten   atomic.Uint64 // checkpoints persisted
	ckptResumed   atomic.Uint64 // runs resumed from a checkpoint
	ckptErrors    atomic.Uint64 // checkpoint writes that failed (run continued)
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
		jobs:       newJobStore(),
		bases:      &baseCache{entries: newLRU[*baseEntry](cfg.BaseEntries)},
		logger:     cfg.Logger,
		reqHist:    newHistogram(latencyBounds),
		queueHist:  newHistogram(latencyBounds),
		start:      time.Now(),
		startInsts: experiments.SimInstructions(),
	}
	s.adm = newAIMD(cfg.Workers, cfg.Workers+cfg.QueueDepth)
	if cfg.TraceSpans > 0 {
		proc := cfg.ProcName
		if proc == "" {
			proc = "worker"
		}
		s.tracer = obs.New(proc, cfg.TraceSpans)
	}
	s.rootCtx, s.rootCancel = context.WithCancel(context.Background())
	s.streams = stream.NewRegistry(stream.Config{
		ReplayEntries: cfg.StreamReplay,
		SessionBuffer: cfg.StreamBuffer,
		SessionTTL:    cfg.StreamTTL,
	})
	traceDir := ""
	if cfg.TraceIntervalEvery > 0 && cfg.CacheDir != "" {
		traceDir = filepath.Join(cfg.CacheDir, "traces")
	}
	s.traces = newSpillCache[[]trace.Interval](cfg.TraceEntries, traceDir, cfg.Faults.Filesystem(), nil)
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

// Handler returns the routed HTTP handler, wrapped in the request
// observability middleware (request IDs, span log lines, the duration
// histogram).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /"+api.Version+"/sim", s.handleSim)
	mux.HandleFunc("POST /"+api.Version+"/batch", s.handleBatch)
	mux.HandleFunc("GET /"+api.Version+"/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /"+api.Version+"/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /"+api.Version+"/jobs/{id}/stream", s.handleJobStream)
	mux.HandleFunc("GET /"+api.Version+"/spans", func(w http.ResponseWriter, r *http.Request) {
		serveSpans(w, r, s.tracer)
	})
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// normalizeErrors turns the mux's own plain-text 404/405 pages into
	// typed api.Error JSON; every other error body is already typed.
	return s.instrument(normalizeErrors(mux))
}

// BeginDrain marks the server draining: /healthz keeps answering ok (the
// process is alive) while /readyz flips to 503, so a frontend stops
// routing new cells here before the listener closes. The server still
// accepts and serves requests while draining — work it already owns, and
// stragglers routed during the frontend's detection window, finish
// normally.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Abort hard-cancels the server's root context: every async job (and any
// boot-time resume) stops at its next cancellation check, leaving
// checkpoint journals on disk exactly as a process kill would. Chaos tests
// use it — paired with a network partition — as the in-process analogue of
// SIGKILL; a real worker dies with the process instead.
func (s *Server) Abort() { s.rootCancel() }

// Shutdown drains the server: it waits for every async job to finish,
// then stops the worker pool (draining any queued tasks). In-flight HTTP
// requests are the http.Server's to drain; call its Shutdown first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.jobs.wg.Wait()
		s.pool.Close()
		s.streams.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// statusError pairs an error with the HTTP status it maps to.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

func badRequest(err error) error { return &statusError{http.StatusBadRequest, err} }

// httpStatus maps an error to its response code: 400 for malformed jobs,
// 504 for deadline-exceeded, 429 on a shed request, 503 while shutting
// down, 500 otherwise (including recovered worker panics).
func httpStatus(err error) int {
	var se *statusError
	switch {
	case errors.As(err, &se):
		return se.code
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the code is moot but 499-ish.
		return http.StatusGatewayTimeout
	case errors.Is(err, errOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, errShuttingDown):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// errorCode classifies an error for api.Error.Code — the machine-readable
// half of the failure model (DESIGN.md, "failure model").
func errorCode(err error) string {
	var (
		se *statusError
		pe *PanicError
	)
	switch {
	case errors.As(err, &pe):
		return api.CodeInternal
	case errors.As(err, &se) && se.code == http.StatusBadRequest:
		return api.CodeBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return api.CodeTimeout
	case errors.Is(err, context.Canceled):
		return api.CodeCanceled
	case errors.Is(err, errOverloaded):
		return api.CodeOverloaded
	case errors.Is(err, errShuttingDown):
		return api.CodeShuttingDown
	default:
		return api.CodeInternal
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = encodeJSON(w, v)
}

// writeBody is writeJSON for a 200 whose body is already encoded; the time
// since start, spent producing and writing it, is the request's encode span.
func writeBody(ctx context.Context, w http.ResponseWriter, start time.Time, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	encodeDone(ctx, start)
}

func writeError(w http.ResponseWriter, err error) {
	code := httpStatus(err)
	if (code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable) &&
		w.Header().Get("Retry-After") == "" {
		// Both conditions are transient; tell well-behaved clients when to
		// come back instead of letting them busy-spin. A handler that set
		// its own (adaptive) hint keeps it.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeJSON(w, code, api.Error{Code: errorCode(err), Error: err.Error()})
}

// timeout resolves a request's timeout_ms against the server default.
func (s *Server) timeout(ms int64) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return s.cfg.DefaultTimeout
}

// requestTimeout resolves the effective deadline of a request: the
// tighter of its timeout_ms and the propagated X-Deadline-Ms budget. A
// budget too small to fit any work rejects the request outright
// (errDeadlineBudget, 504) — cancelling doomed work at admission instead
// of discovering the blown deadline after a simulation slot was burned.
func (s *Server) requestTimeout(r *http.Request, ms int64) (time.Duration, error) {
	d := s.timeout(ms)
	if budget, ok := deadlineBudget(r); ok {
		if budget < minDeadlineBudget {
			s.deadlineRejected.Add(1)
			return 0, errDeadlineBudget
		}
		if budget < d {
			d = budget
		}
	}
	return d, nil
}

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

// cell is one resolved job: its runnable spec, technique and content
// address. Resolve normalizes the ROI (0 -> kernel default) and the key is
// over the normalized ref, so explicit-default and defaulted requests share
// a cache line, and a frontend routes by the address its workers cache by.
type cell struct {
	spec workloads.Spec
	tech string
	key  string
	// plan, on a sampled cell of a batch, is the sampling plan it shares
	// with the batch's other cells of its workload; nil builds its own.
	plan *sharedPlan
}

// resolveCell validates one (workload, technique) pair; its errors are 400s.
func resolveCell(ref workloads.Ref, tech string, sc simConfig) (cell, error) {
	if _, err := experiments.ParseTechnique(tech); err != nil {
		return cell{}, badRequest(err)
	}
	spec, err := workloads.Resolve(ref)
	if err != nil {
		return cell{}, badRequest(err)
	}
	return cell{spec: spec, tech: tech, key: sc.key(spec.Ref, tech)}, nil
}

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
// is canonical (deterministic), so repeated requests are byte-identical. A
// non-nil sc.so selects the sampled path: the cell's content address includes
// the sampling options, so sampled and exact results never share a cache
// line or a single-flight. Cells answered by another request's flight
// replay their stored series to pub instead of streaming live.
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
			if sc.so != nil {
				out, runErr = s.simulateSampled(ctx, runSpec, tech, sc, c.plan)
				ssp.Attr("sampled", "true")
			} else {
				out, runErr = s.simulate(ctx, key, runSpec, tech, sc.cpu, pub)
			}
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

// runBatch answers a batch's cell list (the Workloads×Techniques matrix
// row-major, or the explicit Cells form — see api.BatchRequest.CellList).
// Cached cells are answered in place, in order; the others run
// concurrently (the pool bounds actual simulation parallelism), a sampled
// batch's a workload at a time around one sampling plan each. A
// recovered worker panic fails only its own cell — the cell carries a
// typed api.Error and the rest of the batch completes — while systemic
// failures (deadline, shutdown) cancel the batch. bodies[i] is cell i's
// stored encoding when it was a cache hit, nil otherwise (encodeBatch).
func (s *Server) runBatch(ctx context.Context, req api.BatchRequest, j *job) (out *api.BatchResponse, bodies [][]byte, err error) {
	sc := newSimConfig(req.Config, req.Sampling)
	list := req.CellList()
	// Resolve every cell up front so a malformed one is a clean 400
	// before any simulation starts.
	resolved := make([]cell, len(list))
	for i, c := range list {
		if resolved[i], err = resolveCell(c.Workload, c.Technique, sc); err != nil {
			return nil, nil, err
		}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cells := make([]api.SimResponse, len(list))
	bodies = make([][]byte, len(list))
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	// settle records cell idx's answer and tells the job's stream.
	settle := func(idx int, pub *cellPub, resp api.SimResponse, cellErr error) {
		cells[idx] = resp
		if j == nil {
			return
		}
		ev := api.Event{Kind: api.EventCellDone, Key: resp.Key, Cached: resp.Cached, Done: j.cellDone(), Total: j.total}
		if cellErr != nil {
			ev.Error = cellErr.Error()
		}
		pub.publish(ev)
	}
	// miss is a cell the cache did not hold.
	type miss struct {
		idx int
		c   cell
		pub *cellPub
	}
	simulate := func(m miss) {
		resp, err := s.missCell(ctx, m.c, sc, admitQueue, m.pub)
		var (
			pe *PanicError
			le *cpu.LivelockError
		)
		switch {
		case err == nil:
			settle(m.idx, m.pub, resp, nil)
		case errors.As(err, &pe) || errors.As(err, &le):
			// Isolated crash or wedge of this one cell: report
			// it in place and let the rest of the batch finish.
			settle(m.idx, m.pub, api.SimResponse{
				Key:   m.c.key,
				Error: &api.Error{Code: api.CodeInternal, Error: err.Error()},
			}, err)
		default:
			errOnce.Do(func() {
				firstErr = err
				cancel()
			})
		}
	}
	var (
		groups  [][]miss // a sampled batch's misses, by workload
		groupOf = make(map[string]int)
	)
	for idx, c := range resolved {
		var pub *cellPub
		if j != nil {
			pub = &cellPub{j: j, cell: idx, bench: c.spec.Ref.Kernel, tech: c.tech}
		}
		if resp, body, ok := s.hitCell(ctx, c, pub); ok {
			bodies[idx] = body
			settle(idx, pub, resp, nil)
			continue
		}
		m := miss{idx, c, pub}
		if sc.so == nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				simulate(m)
			}()
			continue
		}
		ref := string(mustJSON(c.spec.Ref))
		g, ok := groupOf[ref]
		if !ok {
			g = len(groups)
			groupOf[ref] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], m)
	}
	// The sampled misses of one workload replay one sampling plan, which
	// lives as long as its group runs, and no more groups run at a time
	// than the pool has workers: peak memory follows the pool, not the
	// batch (a plan is tens of MB at full ROIs). A group's first cell, which
	// builds the plan, runs alone, so the group's other cells queue once
	// the plan is there to replay and no worker parks behind the build
	// while another group has work for it (experiments.MatrixSampled
	// schedules the same way).
	live := make(chan struct{}, s.cfg.Workers)
	for _, group := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case live <- struct{}{}:
				defer func() { <-live }()
			case <-ctx.Done(): // cancelled: the cells below fail at once
			}
			plan := &sharedPlan{}
			run := func(m miss) {
				m.c.plan = plan // on m, a copy: the plan dies with this goroutine
				simulate(m)
			}
			run(group[0])
			var rest sync.WaitGroup
			for _, m := range group[1:] {
				rest.Add(1)
				go func() {
					defer rest.Done()
					run(m)
				}()
			}
			rest.Wait()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	out = &api.BatchResponse{Cells: cells}
	for _, c := range cells {
		if c.Cached {
			out.CacheHits++
		}
		if c.Error != nil {
			out.Failed++
		}
	}
	return out, bodies, nil
}

// ---- handlers ----

func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	var req api.SimRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, badRequest(fmt.Errorf("service: bad request body: %w", err)))
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, badRequest(err))
		return
	}
	sc := newSimConfig(req.Config, req.Sampling)
	c, err := resolveCell(req.Workload, req.Technique, sc)
	if err != nil {
		writeError(w, err)
		return
	}
	d, err := s.requestTimeout(r, req.TimeoutMS)
	if err != nil {
		writeError(w, err)
		return
	}
	if !s.adm.Acquire() {
		s.pool.shed.Add(1)
		writeError(w, fmt.Errorf("%w (admission limit)", errOverloaded))
		return
	}
	defer s.adm.Release()
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	resp, body, err := s.runCell(ctx, c, sc, admitShed, nil)
	if err != nil {
		if errors.Is(err, errOverloaded) {
			// The queue itself filled behind the admission gate: congestion
			// evidence the controller should cut on.
			s.adm.Overload()
		}
		writeError(w, err)
		return
	}
	s.adm.Success()
	if body != nil {
		writeBody(r.Context(), w, time.Now(), body)
		return
	}
	writeJSONTimed(r.Context(), w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, badRequest(fmt.Errorf("service: bad request body: %w", err)))
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, badRequest(err))
		return
	}
	if h := r.Header.Get(api.HeaderIdempotencyKey); h != "" {
		req.IdempotencyKey = h
	}
	// Coarse admission: with the queue already full, a synchronous batch
	// would park its every cell behind it — shed the whole request up
	// front instead of stalling the connection. (Async batches return 202
	// immediately; their cells queue in the background by design.)
	if !req.Async && s.pool.Saturated() {
		s.pool.shed.Add(1)
		s.adm.Overload()
		writeError(w, errOverloaded)
		return
	}
	if req.Async {
		j, created := s.jobs.create(len(req.CellList()), req.IdempotencyKey, s.streams)
		if !created {
			// A retried submission: the original job answers it. A key
			// reused for a *different* batch is a client bug worth a loud
			// error rather than silently serving unrelated results.
			if j.total != len(req.CellList()) {
				writeError(w, badRequest(fmt.Errorf("service: idempotency key %q was used for a different batch (%d cells, resubmission has %d)",
					req.IdempotencyKey, j.total, len(req.CellList()))))
				return
			}
			writeJSON(w, http.StatusAccepted, api.BatchResponse{JobID: j.id, Deduped: true})
			return
		}
		// Async jobs outlive their submitting connection but not the
		// process: they derive from rootCtx so Abort (the in-process kill)
		// stops them at the next cancellation check. The accepting
		// request's trace identity is copied over explicitly — rootCtx
		// knows nothing of the connection — so the job's cell spans stay
		// children of the submitter's trace.
		jsp := obs.FromContext(r.Context()).StartChild("worker.job").Attr("job_id", j.id)
		j.setTrace(jsp.TraceID())
		ctx := obs.ContextWithSpan(
			obs.ContextWithRequestID(s.rootCtx, obs.RequestIDFrom(r.Context())), jsp)
		var cancel context.CancelFunc = func() {}
		if req.TimeoutMS > 0 {
			ctx, cancel = context.WithTimeout(ctx, s.timeout(req.TimeoutMS))
		}
		s.jobs.wg.Add(1)
		go func() {
			defer s.jobs.wg.Done()
			defer cancel()
			batch, _, err := s.runBatch(ctx, req, j)
			jsp.Fail(err).End()
			j.finish(batch, err)
			if j.bc != nil {
				// Terminal event, then close: subscribers drain whatever is
				// buffered (ending with job-done) and see a clean stream end.
				ev := api.Event{Kind: api.EventJobDone, Done: j.doneCount(), Total: j.total}
				if err != nil {
					ev.Error = err.Error()
				}
				ev.Cell = -1
				j.bc.Publish(ev)
				j.bc.Close()
			}
		}()
		writeJSON(w, http.StatusAccepted, api.BatchResponse{JobID: j.id})
		return
	}
	d, err := s.requestTimeout(r, req.TimeoutMS)
	if err != nil {
		writeError(w, err)
		return
	}
	if !s.adm.Acquire() {
		s.pool.shed.Add(1)
		writeError(w, fmt.Errorf("%w (admission limit)", errOverloaded))
		return
	}
	defer s.adm.Release()
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	batch, bodies, err := s.runBatch(ctx, req, nil)
	if err != nil {
		if errors.Is(err, errOverloaded) {
			s.adm.Overload()
		}
		writeError(w, err)
		return
	}
	s.adm.Success()
	start := time.Now()
	body, err := encodeBatch(batch.Cells, bodies, batch.CacheHits, batch.Failed)
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(r.Context(), w, start, body)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, api.Error{Code: api.CodeNotFound, Error: fmt.Sprintf("service: unknown job %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the routing gate: liveness (/healthz) says "don't kill
// me", readiness says "send me work". They diverge exactly during a
// graceful drain — the process is alive finishing owned work but must not
// receive new cells. The unready answer is typed JSON (like every other
// error this server emits) so a prober can read the reason, not just the
// status.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeJSON(w, http.StatusServiceUnavailable, api.Error{Code: api.CodeShuttingDown, Error: "service: draining"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

// Metrics snapshots the service counters. The cache pair is read under
// the cache lock and the clock is read once, so one snapshot is
// internally consistent (handleMetrics serves it as JSON or Prometheus
// text; see observe.go).
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
	admLimit, admInflight, admRejected := s.adm.Snapshot()
	var ckptQuarantined uint64
	if s.ckpts != nil {
		ckptQuarantined = s.ckpts.Quarantined()
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

		AdmissionLimit:    admLimit,
		AdmissionInflight: admInflight,
		AdmissionRejected: admRejected,
		DeadlineRejected:  s.deadlineRejected.Load(),

		PanicsRecovered:     s.pool.Panics(),
		ShedTotal:           s.pool.Shed(),
		SingleFlightRetries: s.sfRetries.Load(),
		SpillQuarantined:    s.cache.Quarantined(),

		CheckpointsWritten:     s.ckptWritten.Load(),
		CheckpointsResumed:     s.ckptResumed.Load(),
		CheckpointWriteErrors:  s.ckptErrors.Load(),
		CheckpointsQuarantined: ckptQuarantined,
		WatchdogTrips:          s.watchdogTrips.Load(),

		RequestsTotal:   s.reqTotal.Load(),
		TracesStored:    s.traces.Len(),
		ObsSpans:        s.tracer.Len(),
		ObsSpansDropped: s.tracer.Dropped(),

		StreamSessionsActive:  sm.SessionsActive,
		StreamSessionsOpened:  sm.SessionsOpened,
		StreamSessionsExpired: sm.SessionsExpired,
		StreamEventsPublished: sm.EventsPublished,
		StreamEventsDropped:   sm.EventsDropped,
		StreamSessions:        sm.Sessions,
	}
}

// ---- flight recorder ----

// DumpFlight seals the span collector's flight record — the ring of the
// last N finished spans plus error events — to
// <CacheDir>/forensics/flight-<reason>-<µs>.json and returns the path.
// The payload is integrity-sealed like a checkpoint (payload + sha256
// footer; sealed.Unseal verifies), so a post-mortem can trust a dump
// that survived the crash it documents. Returns "" (and writes nothing)
// when tracing is disabled or no CacheDir is configured. cmd/dvrd calls
// this on SIGTERM; the watchdog and panic paths call it in-process.
func (s *Server) DumpFlight(reason string) string {
	return dumpFlight(s.tracer, s.cfg.Faults.Filesystem(), s.cfg.CacheDir, reason, s.logger)
}

// dumpFlight is the role-agnostic flight-recorder dump shared by the
// worker Server (rooted at CacheDir) and the cluster Frontend (rooted at
// LedgerDir). Best-effort by contract: a failed dump must never worsen
// the crash being documented, so every error path just returns "".
func dumpFlight(tracer *obs.Tracer, fsys faults.FS, dir, reason string, logger *slog.Logger) string {
	if tracer == nil || dir == "" {
		return ""
	}
	fr := tracer.Flight(reason)
	payload, err := json.MarshalIndent(fr, "", "  ")
	if err != nil {
		return ""
	}
	path := publishForensics(fsys, dir, fmt.Sprintf("flight-%s-%d", reason, fr.DumpedAtUS), sealed.Seal(payload))
	if path != "" {
		logger.Info("flight recorder dump",
			"reason", reason, "path", path, "spans", len(fr.Spans), "dropped", fr.Dropped)
	}
	return path
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

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"dvr/internal/experiments"
	"dvr/internal/faults"
	"dvr/internal/ledger"
	"dvr/internal/obs"
	"dvr/internal/sealed"
	"dvr/internal/service/api"
	"dvr/internal/service/client"
	"dvr/internal/stream"
	"dvr/internal/workloads"
)

// The request core: the HTTP request path of both dvrd roles, written
// once. A worker (*Server) and a frontend (*Frontend) each embed a core
// and differ only in the dispatcher they hand it — how one cell and one
// batch are answered (a worker simulates, a frontend routes to its
// workers), plus each role's /metrics snapshot and /v1/jobs/{id}/trace
// view. Decoding, deadline budgets, async acceptance with idempotency
// keys, job status, health, drain, SSE and metrics negotiation all live
// here, so the two roles cannot drift apart.

var (
	errShuttingDown = errors.New("service: shutting down")
	// errOverloaded is the load-shed signal: the worker queue is full, so
	// the request is rejected 429 + Retry-After instead of stalling the
	// connection behind every queued job. Jobs are idempotent by cache
	// key, so clients retry safely (internal/service/client does).
	errOverloaded = errors.New("service: overloaded: simulation queue is full")
	// errDeadlineBudget is the typed doomed-request rejection; it wraps
	// context.DeadlineExceeded so the status/code mapping answers 504
	// api.CodeTimeout.
	errDeadlineBudget = fmt.Errorf("service: deadline budget exhausted: %w", context.DeadlineExceeded)
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

// Common holds the knobs both roles share; Config and FrontendConfig
// embed it.
type Common struct {
	// DefaultTimeout bounds requests that do not set timeout_ms; 0 means
	// 5 minutes.
	DefaultTimeout time.Duration
	// StreamReplay bounds each job's event log behind GET
	// /v1/jobs/{id}/stream; 0 means 4096 events. It is both the
	// Last-Event-ID resume window and how far a subscriber may fall
	// behind before it loses its oldest unread telemetry (counted at
	// /metrics); cell-done and job-done events are kept past it.
	StreamReplay int
	// StreamHeartbeat is the SSE comment-keepalive interval on quiet
	// streams; 0 means 15s.
	StreamHeartbeat time.Duration
	// Faults injects scripted failures (chaos tests); nil means none. A
	// worker reads the simulation hooks and FS (spill, checkpoints), a
	// frontend Net (its transport to the replicas) and FS (the ledger);
	// Crash fires at async admission on either.
	Faults *faults.Injector
	// Logger receives one structured line per request (id, status, span
	// timings); nil discards them.
	Logger *slog.Logger
	// TraceSpans, when nonzero, enables distributed tracing: the process
	// continues propagated X-Trace-Ctx contexts (a frontend roots them and
	// propagates them to its workers), collects finished spans in a bounded
	// ring of this capacity (served at GET /v1/spans, dumped by the flight
	// recorder), and stamps trace_id/span_id onto its log lines. 0 disables
	// span tracing at zero cost on the request path.
	TraceSpans int
	// ProcName labels this process's spans in fleet trace views (e.g.
	// "worker@127.0.0.1:8381"); "" means the role name, "worker" or
	// "frontend".
	ProcName string
}

// dispatcher is what a role hands its core: the answers that differ
// between a worker and a frontend.
type dispatcher interface {
	// answerCell answers one validated /v1/sim cell within ctx. body, when
	// non-nil, is the stored encoding of resp (a worker's cache hit).
	answerCell(ctx context.Context, req api.SimRequest, c cell, sc simConfig) (resp api.SimResponse, body []byte, err error)
	// answerBatch answers a batch whose cells are resolved. j is the async
	// job the batch runs as, nil for a synchronous request. bodies[i], when
	// non-nil, is cell i's stored encoding (encodeBatch).
	answerBatch(ctx context.Context, req api.BatchRequest, cells []cell, sc simConfig, j *job) (out *api.BatchResponse, bodies [][]byte, err error)
	// snapshot is the role's /metrics JSON body; the core writes it as
	// Prometheus text through the exposition the role was built with.
	snapshot() any
	// handleJobTrace serves GET /v1/jobs/{id}/trace.
	handleJobTrace(w http.ResponseWriter, r *http.Request)
	// stop releases the role's own machinery once every job has drained.
	stop()
}

// core is the request state and path both roles share. A role embeds it
// and calls init before serving.
type core struct {
	role dispatcher
	// name is the role, "worker" or "frontend": the default ProcName and
	// the prefix of the async job span.
	name string
	opts Common
	// forensics is where DumpFlight seals flight records ("" disables).
	forensics string
	// ledger is the durable journal of accepted async jobs: set by a
	// frontend started with LedgerDir, nil otherwise (always on workers).
	ledger *ledger.Store

	jobs        *jobStore
	batchFlight *flightGroup[*api.BatchResponse]
	// streams owns the per-job event logs behind GET
	// /v1/jobs/{id}/stream.
	streams *stream.Registry
	// linger is how long an SSE writer holding only telemetry waits for
	// more before it flushes: streamLinger (tests stretch it).
	linger time.Duration

	// tracer is the distributed-tracing span collector (nil when
	// disabled); logger, reqSeq and reqHist back the request observability
	// layer (observe.go).
	tracer   *obs.Tracer
	logger   *slog.Logger
	reqSeq   atomic.Uint64
	reqTotal atomic.Uint64
	reqHist  *histogram
	// expo is what the role's /metrics text adds to its snapshot's
	// numbers, every histogram the process observes included (metrics.go).
	expo exposition

	start time.Time
	// draining flips when graceful shutdown begins: /readyz answers 503 so
	// a frontend (or a load balancer in front of frontends) stops routing
	// new work here while in-flight work finishes.
	draining atomic.Bool

	idemHits         atomic.Uint64 // submissions answered by an existing job or flight
	deadlineRejected atomic.Uint64 // requests refused for exhausted budget

	// rootCtx parents every async job, so jobs survive their accepting
	// request but die with the process; Abort cancels it.
	rootCtx    context.Context
	rootCancel context.CancelFunc
}

// withDefaults fills in the zero knobs of the role named name.
func (c Common) withDefaults(name string) Common {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.StreamHeartbeat <= 0 {
		c.StreamHeartbeat = 15 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	if c.ProcName == "" {
		c.ProcName = name
	}
	return c
}

// init readies the core of the role named name, whose /metrics text adds
// expo to its snapshot. Flight records go under forensics ("" disables
// them).
func (co *core) init(role dispatcher, name string, expo exposition, opts Common, forensics string) {
	opts = opts.withDefaults(name)
	co.role, co.name, co.opts, co.forensics = role, name, opts, forensics
	co.jobs = newJobStore()
	co.batchFlight = newFlightGroup[*api.BatchResponse]()
	co.streams = stream.NewRegistry(stream.Config{ReplayEntries: opts.StreamReplay})
	co.linger = streamLinger
	if opts.TraceSpans > 0 {
		co.tracer = obs.New(opts.ProcName, opts.TraceSpans)
	}
	co.logger = opts.Logger
	co.expo = expo
	co.reqHist = co.histogram("dvrd_request_duration_seconds")
	co.start = time.Now()
	co.rootCtx, co.rootCancel = context.WithCancel(context.Background())
}

// histogram adds a latency histogram to the /metrics text under name (with
// its labels, if its family has several); a role adds its own while it is
// built, before it serves.
func (co *core) histogram(name string) *histogram {
	h := newHistogram(latencyBounds)
	co.expo.hists = append(co.expo.hists, hist{name, h})
	return h
}

// Handler returns the routed HTTP handler, wrapped in the request
// observability middleware (request IDs, span log lines, the duration
// histogram). Both roles serve the same routes, so a client need not
// know which it is talking to.
func (co *core) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /"+api.Version+"/sim", co.handleSim)
	mux.HandleFunc("POST /"+api.Version+"/batch", co.handleBatch)
	mux.HandleFunc("GET /"+api.Version+"/jobs/{id}", co.handleJob)
	mux.HandleFunc("GET /"+api.Version+"/jobs/{id}/trace", co.role.handleJobTrace)
	mux.HandleFunc("GET /"+api.Version+"/jobs/{id}/stream", co.handleJobStream)
	mux.HandleFunc("GET /"+api.Version+"/spans", co.handleSpans)
	mux.HandleFunc("GET /healthz", co.handleHealthz)
	mux.HandleFunc("GET /readyz", co.handleReadyz)
	mux.HandleFunc("GET /metrics", co.handleMetrics)
	// normalizeErrors turns the mux's own plain-text 404/405 pages into
	// typed api.Error JSON; every other error body is already typed.
	return co.instrument(normalizeErrors(mux))
}

// BeginDrain marks the process draining: /healthz keeps answering ok (the
// process is alive) while /readyz flips to 503, so whatever routes to it
// stops sending new work before the listener closes. Requests still
// arriving while draining — stragglers routed during the router's
// detection window — are served normally.
func (co *core) BeginDrain() { co.draining.Store(true) }

// Abort hard-cancels the root context: every async job stops at its next
// cancellation check without settling, leaving checkpoint journals and
// ledger records on disk exactly as a process kill would, so the next
// incarnation recovers what this one drops. Chaos tests use it — paired
// with a network partition — as the in-process analogue of SIGKILL.
func (co *core) Abort() {
	co.draining.Store(true)
	co.rootCancel()
}

// Shutdown drains the process: it waits for every async job to finish,
// then stops the role's machinery (a worker's pool, a frontend's prober)
// and the stream registry. In-flight HTTP requests are the http.Server's
// to drain; call its Shutdown first.
func (co *core) Shutdown(ctx context.Context) error {
	co.draining.Store(true)
	done := make(chan struct{})
	go func() {
		co.jobs.wg.Wait()
		co.role.stop()
		co.streams.Close()
		co.rootCancel()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// DumpFlight seals the span collector's flight record — the ring of the
// last N finished spans plus error events — to
// <dir>/forensics/flight-<reason>-<µs>.json (dir: a worker's CacheDir, a
// frontend's LedgerDir) and returns the path, or "" when tracing or the
// directory is disabled or the write failed: a failed dump must never
// worsen the crash it documents. The payload is sealed like a checkpoint
// (sealed.Unseal verifies). cmd/dvrd calls this on SIGTERM; the watchdog
// and panic paths call it in-process.
func (co *core) DumpFlight(reason string) string {
	if co.tracer == nil || co.forensics == "" {
		return ""
	}
	fr := co.tracer.Flight(reason)
	payload, err := json.MarshalIndent(fr, "", "  ")
	if err != nil {
		return ""
	}
	path := publishForensics(co.opts.Faults.Filesystem(), co.forensics, fmt.Sprintf("flight-%s-%d", reason, fr.DumpedAtUS), sealed.Seal(payload))
	if path != "" {
		co.logger.Info("flight recorder dump",
			"reason", reason, "path", path, "spans", len(fr.Spans), "dropped", fr.Dropped)
	}
	return path
}

// ---- request path ----

// decode reads a request body and validates it; both failures are 400s.
func decode[T interface{ Validate() error }](r *http.Request) (T, error) {
	var req T
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return req, badRequest(fmt.Errorf("service: bad request body: %w", err))
	}
	if err := req.Validate(); err != nil {
		return req, badRequest(err)
	}
	return req, nil
}

// cell is one resolved job: its runnable spec, technique and content
// address. Resolve normalizes the ROI (0 -> kernel default) and the key is
// over the normalized ref, so explicit-default and defaulted requests share
// a cache line, and a frontend routes by the address its workers cache by.
type cell struct {
	spec workloads.Spec
	tech string
	key  string
}

// resolveCell validates one (workload, technique) pair; its errors are 400s.
func resolveCell(ref workloads.Ref, tech string, sc simConfig) (cell, error) {
	if _, err := experiments.Lookup(experiments.Technique(tech)); err != nil {
		return cell{}, badRequest(err)
	}
	spec, err := workloads.Resolve(ref)
	if err != nil {
		return cell{}, badRequest(err)
	}
	return cell{spec: spec, tech: tech, key: sc.key(spec.Ref, tech)}, nil
}

// resolveBatch resolves every cell of a batch up front, so a malformed one
// is a clean 400 before any work starts or any job is accepted.
func resolveBatch(req api.BatchRequest) ([]cell, simConfig, error) {
	sc, err := newSimConfig(req.Config)
	if err != nil {
		return nil, sc, err
	}
	list := req.CellList()
	cells := make([]cell, len(list))
	for i, c := range list {
		if cells[i], err = resolveCell(c.Workload, c.Technique, sc); err != nil {
			return nil, sc, err
		}
	}
	return cells, sc, nil
}

// tally wraps a batch's answered cells in its response, counting cache
// hits and failed cells.
func tally(cells []api.SimResponse) *api.BatchResponse {
	out := &api.BatchResponse{Cells: cells}
	for _, c := range cells {
		if c.Cached {
			out.CacheHits++
		}
		if c.Error != nil {
			out.Failed++
		}
	}
	return out
}

// deadline derives a request's context: its timeout_ms (or the configured
// default) shrunk to the client's propagated X-Deadline-Ms budget. A
// malformed budget header is ignored — the request still has timeout_ms
// and the default. A budget too small to fit any work rejects the request
// outright (errDeadlineBudget, 504), cancelling doomed work at admission
// instead of spending capacity on a request whose client has given up.
func (co *core) deadline(r *http.Request, ms int64) (context.Context, context.CancelFunc, error) {
	d := co.opts.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if h := r.Header.Get(api.HeaderDeadlineMS); h != "" {
		if ms, err := strconv.ParseInt(h, 10, 64); err == nil {
			budget := time.Duration(ms) * time.Millisecond
			if budget < minDeadlineBudget {
				co.deadlineRejected.Add(1)
				return nil, nil, errDeadlineBudget
			}
			d = min(d, budget)
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

func (co *core) handleSim(w http.ResponseWriter, r *http.Request) {
	req, err := decode[api.SimRequest](r)
	if err != nil {
		writeError(w, err)
		return
	}
	sc, err := newSimConfig(req.Config)
	if err != nil {
		writeError(w, err)
		return
	}
	c, err := resolveCell(req.Workload, req.Technique, sc)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel, err := co.deadline(r, req.TimeoutMS)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	resp, body, err := co.role.answerCell(ctx, req, c, sc)
	if err != nil {
		writeError(w, err)
		return
	}
	if body != nil {
		writeBody(r.Context(), w, time.Now(), body)
		return
	}
	writeJSONTimed(r.Context(), w, http.StatusOK, resp)
}

func (co *core) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, err := decode[api.BatchRequest](r)
	if err != nil {
		writeError(w, err)
		return
	}
	if h := r.Header.Get(api.HeaderIdempotencyKey); h != "" {
		req.IdempotencyKey = h
	}
	cells, sc, err := resolveBatch(req)
	if err != nil {
		writeError(w, err)
		return
	}
	if req.Async {
		co.acceptAsync(w, r, req, cells, sc)
		return
	}
	ctx, cancel, err := co.deadline(r, req.TimeoutMS)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	if key := req.IdempotencyKey; key != "" {
		var (
			batch  *api.BatchResponse
			jobID  string
			shared bool
		)
		if j, ok := co.jobs.getIdem(key); ok {
			// A synchronous duplicate of a key some job already owns waits
			// (bounded by ctx) for that job and serves its outcome — the same
			// exactly-once answer, without a second execution.
			jobID, shared = j.id, true
			select {
			case <-ctx.Done():
				err = ctx.Err()
			case <-j.doneCh:
				batch, err = j.outcome()
			}
		} else {
			// Concurrent synchronous duplicates collapse on a single flight.
			batch, shared, err = co.batchFlight.Do(ctx, key, func() (*api.BatchResponse, error) {
				out, _, err := co.role.answerBatch(ctx, req, cells, sc, nil)
				return out, err
			})
		}
		if shared {
			co.idemHits.Add(1)
		}
		if err != nil {
			writeError(w, err)
			return
		}
		out := *batch
		out.JobID, out.Deduped = jobID, shared
		writeJSONTimed(r.Context(), w, http.StatusOK, out)
		return
	}
	batch, bodies, err := co.role.answerBatch(ctx, req, cells, sc, nil)
	if err != nil {
		writeError(w, err)
		return
	}
	start := time.Now()
	body, err := encodeBatch(batch.Cells, bodies, batch.CacheHits, batch.Failed)
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(r.Context(), w, start, body)
}

// acceptAsync admits an async batch: idempotency-key dedup, the durable
// ledger append when a ledger exists, then the 202. The two crash points
// bracket the append so the chaos suite can pin both halves of the
// exactly-once argument — die before the append and the job never
// existed (the client's retry re-runs it from scratch); die after and a
// rebooted frontend recovers it under the same identity.
func (co *core) acceptAsync(w http.ResponseWriter, r *http.Request, req api.BatchRequest, cells []cell, sc simConfig) {
	if co.opts.Faults.CrashAt(faults.FrontendCrashBeforeLedgerWrite) {
		panic(http.ErrAbortHandler)
	}
	j, created := co.jobs.create(len(cells), req.IdempotencyKey, co.streams)
	if !created {
		// A retried submission: the original job answers it. A key reused
		// for a *different* batch is a client bug worth a loud error rather
		// than silently serving unrelated results.
		if j.total != len(cells) {
			writeError(w, badRequest(fmt.Errorf(
				"service: idempotency key %q was used for a different batch (%d cells, resubmission has %d)",
				req.IdempotencyKey, j.total, len(cells))))
			return
		}
		co.idemHits.Add(1)
		writeJSON(w, http.StatusAccepted, api.BatchResponse{JobID: j.id, Deduped: true})
		return
	}
	// The job span is a child of the accepting request's span, so the whole
	// async batch hangs off the submitter's trace. The trace id rides the
	// accepted ledger record so a post-crash recovery can link its
	// re-dispatch spans back.
	jsp := obs.FromContext(r.Context()).StartChild(co.name+".job").Attr("job_id", j.id)
	j.setTrace(jsp.TraceID())
	if co.ledger != nil {
		rec := ledger.Record{Kind: ledger.KindAccepted, JobID: j.id,
			Key: req.IdempotencyKey, Total: j.total, Request: &req, TraceID: jsp.TraceID()}
		if err := co.ledger.Append(j.id, rec); err != nil {
			co.logger.Warn("ledger accepted-record append failed", "job", j.id, "err", err)
		}
	}
	if co.opts.Faults.CrashAt(faults.FrontendCrashAfterLedgerWrite) {
		panic(http.ErrAbortHandler)
	}
	co.launchJob(j, req, cells, sc, jsp, obs.RequestIDFrom(r.Context()))
	writeJSON(w, http.StatusAccepted, api.BatchResponse{JobID: j.id})
}

// launchJob runs an accepted async batch in the background under the root
// context — not the accepting request's, which dies with the 202. The job
// span and request id are copied over explicitly so the batch's spans
// stay in the submitter's trace.
func (co *core) launchJob(j *job, req api.BatchRequest, cells []cell, sc simConfig, jsp *obs.Span, reqID string) {
	ctx := obs.ContextWithSpan(obs.ContextWithRequestID(co.rootCtx, reqID), jsp)
	cancel := context.CancelFunc(func() {})
	if req.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
	}
	co.jobs.wg.Add(1)
	go func() {
		defer co.jobs.wg.Done()
		defer cancel()
		batch, _, err := co.role.answerBatch(ctx, req, cells, sc, j)
		jsp.Fail(err).End()
		if err != nil && co.rootCtx.Err() != nil {
			// The process is dying (Abort), not the job: a real kill -9
			// would write nothing either. Leave any journal pending so the
			// next incarnation recovers the job under its own identity.
			return
		}
		co.settle(j, batch, err)
	}()
}

// settle seals a finished job: its outcome, then the durable done record
// (so a crash after this point dedups rather than re-runs), then the
// job-done event and stream close — subscribers read what is left past
// their cursors, ending with job-done, and see a clean stream end.
func (co *core) settle(j *job, batch *api.BatchResponse, err error) {
	j.finish(batch, err)
	if co.ledger != nil {
		rec := ledger.Record{Kind: ledger.KindDone, JobID: j.id}
		if err != nil {
			rec.Error = err.Error()
		} else {
			rec.Batch = batch
		}
		if aerr := co.ledger.Append(j.id, rec); aerr != nil {
			co.logger.Warn("ledger done-record append failed", "job", j.id, "err", aerr)
		}
	}
	if j.bc != nil {
		ev := api.Event{Kind: api.EventJobDone, Done: j.doneCount(), Total: j.total, Cell: -1}
		if err != nil {
			ev.Error = err.Error()
		}
		j.bc.Publish(ev)
		j.bc.Close()
	}
}

func (co *core) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := co.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, api.Error{Code: api.CodeNotFound, Error: fmt.Sprintf("service: unknown job %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (co *core) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the routing gate: liveness (/healthz) says "don't kill
// me", readiness says "send me work". They diverge exactly during a
// graceful drain — the process is alive finishing owned work but must not
// receive new work. The unready answer is typed JSON (like every other
// error this server emits) so a prober can read the reason, not just the
// status.
func (co *core) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if co.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeJSON(w, http.StatusServiceUnavailable, api.Error{Code: api.CodeShuttingDown, Error: "service: draining"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

// handleMetrics serves the role's snapshot as JSON (default; the CI smoke
// pipes it through a JSON parser) or as Prometheus text exposition when
// the client asks for text (see wantsPrometheus).
func (co *core) handleMetrics(w http.ResponseWriter, r *http.Request) {
	accept := r.Header.Get("Accept")
	if !wantsPrometheus(accept) {
		writeJSON(w, http.StatusOK, co.role.snapshot())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	co.expo.write(w, co.role.snapshot(), wantsExemplars(accept))
}

// ---- responses and the error taxonomy ----

// statusError pairs an error with the HTTP status it maps to.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

func badRequest(err error) error { return &statusError{http.StatusBadRequest, err} }

// classify maps an error to its response status and api.Error code, the
// failure model (DESIGN.md, "failure model"): 400 for malformed jobs, 504
// for deadline-exceeded, 429 on a shed request, 503 while shutting down or
// with no live replica left, 500 otherwise (including recovered worker
// panics).
func classify(err error) (status int, code string) {
	var se *statusError
	switch {
	case errors.As(err, &se):
		return se.code, api.CodeBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, api.CodeTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is moot but 499-ish.
		return http.StatusGatewayTimeout, api.CodeCanceled
	case errors.Is(err, errOverloaded):
		return http.StatusTooManyRequests, api.CodeOverloaded
	case errors.Is(err, errShuttingDown) || errors.Is(err, errNoReplica):
		return http.StatusServiceUnavailable, api.CodeShuttingDown
	default:
		return http.StatusInternalServerError, api.CodeInternal
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

// writeError answers a failed request. A replica's verdict (a typed API
// error a frontend got from a worker) passes through with its original
// status, code and Retry-After — the frontend is transparent; every other
// error goes through the taxonomy above.
func writeError(w http.ResponseWriter, err error) {
	var ae *client.APIError
	if errors.As(err, &ae) {
		if ae.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(ae.RetryAfter/time.Second)))
		}
		writeJSON(w, ae.Status, api.Error{Code: ae.Code, Error: ae.Message})
		return
	}
	status, code := classify(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		// Both conditions are transient; tell well-behaved clients when to
		// come back instead of letting them busy-spin.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeJSON(w, status, api.Error{Code: code, Error: err.Error()})
}

// Package api defines the versioned wire types of the dvrd simulation
// service: pure-data request/response structs shared by the server
// (internal/service), the client library (internal/service/client) and the
// CLI harnesses. Nothing here has behaviour beyond trivial validation; a
// request is fully described by serializable values (workloads.Ref,
// cpu.Config, technique name), which is what makes jobs cacheable by
// content address and transportable across processes.
package api

import (
	"encoding/json"
	"errors"
	"fmt"

	"dvr/internal/cpu"
	"dvr/internal/obs"
	"dvr/internal/trace"
	"dvr/internal/workloads"
)

// Version is the wire API version; it prefixes every route (/v1/...).
const Version = "v1"

// EngineVersion identifies the simulation semantics of this build: it is
// hashed into every cache key so results computed by an older engine are
// never served for a newer one (see DESIGN.md, "dvrd cache key"). Bump it
// whenever a change anywhere in the simulator (cpu, mem, bpred, runahead,
// prefetch, workloads, graphgen) alters any Result field for any job.
const EngineVersion = "dvr-engine/4"

// errSampling refuses a request that carries "sampling": sampled
// projection runs in-process only, one plan per workload for every technique.
var errSampling = errors.New("api: dvrd does not serve sampled projection; run it in-process with dvrsim -sampled or dvrbench -sampled")

// Transport headers carrying request metadata that is not part of the
// JSON body. Both are optional on every request.
const (
	// HeaderIdempotencyKey carries the client's idempotency key; it takes
	// effect exactly like the body's idempotency_key field (the header
	// wins when both are set). Retried batch submissions carrying the same
	// key return the original job instead of re-executing.
	HeaderIdempotencyKey = "Idempotency-Key"
	// HeaderDeadlineMS carries the client's remaining deadline budget in
	// milliseconds at send time. Each hop shrinks it before forwarding
	// (client → frontend → worker), and a server whose remaining budget
	// cannot fit any work answers 504 immediately instead of starting
	// work that is doomed to be abandoned.
	HeaderDeadlineMS = "X-Deadline-Ms"
	// HeaderRequestID carries the caller's request id. A server reuses an
	// inbound id instead of minting its own and echoes it on the response,
	// so one id joins frontend and worker log lines for the same hop.
	HeaderRequestID = "X-Request-ID"
	// HeaderTraceCtx carries the distributed-tracing span context in
	// W3C-traceparent-shaped form ("00-<trace id>-<span id>"); see
	// internal/obs. A server continues the propagated trace; absence (or a
	// garbled value) starts a fresh root.
	HeaderTraceCtx = obs.Header
)

// SimRequest asks for one simulation cell: one workload under one
// technique and configuration. POST /v1/sim.
type SimRequest struct {
	// Workload names the kernel, graph parameters and ROI to simulate.
	Workload workloads.Ref `json:"workload"`
	// Technique selects the runahead technique ("ooo", "vr", "dvr", ...).
	Technique string `json:"technique"`
	// Config is the core configuration; nil means cpu.DefaultConfig().
	Config *cpu.Config `json:"config,omitempty"`
	// Sampling is only ever refused (errSampling), never run as exact.
	Sampling json.RawMessage `json:"sampling,omitempty"`
	// TimeoutMS bounds the request; 0 means the server default. A request
	// that exceeds its deadline is cancelled in-flight and answered 504.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// IdempotencyKey is carried for symmetry with BatchRequest (the Go
	// client stamps it as the Idempotency-Key header on every retry), but
	// no server keys /v1/sim on it: a cell is already deduplicated by its
	// content address — a repeat is a cache hit and a concurrent duplicate
	// joins the in-flight simulation — so a retried cell never simulates
	// twice, with or without a key.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// Validate rejects structurally empty requests before they reach the
// registry (which produces the detailed errors).
func (r SimRequest) Validate() error {
	if r.Workload.Kernel == "" {
		return fmt.Errorf("api: workload.kernel is required")
	}
	if r.Technique == "" {
		return fmt.Errorf("api: technique is required")
	}
	if r.Sampling != nil {
		return errSampling
	}
	return nil
}

// SimResponse is the outcome of one cell. Result is canonical
// (cpu.Result.Canonical): deterministic and byte-stable for one Key, so
// cached and freshly-simulated responses are indistinguishable except for
// the Cached flag.
type SimResponse struct {
	// Key is the content address of the job: the SHA-256 cache key over
	// (engine version, workload ref, technique, config).
	Key    string     `json:"key"`
	Cached bool       `json:"cached"`
	Result cpu.Result `json:"result"`
	// Error is set on batch cells whose simulation failed in isolation (a
	// recovered worker panic): the rest of the batch still completes and
	// this cell carries the typed failure instead of a result. Single-cell
	// /v1/sim failures use the HTTP error body, not this field.
	Error *Error `json:"error,omitempty"`
}

// CellRequest names one explicit cell of a batch: one workload under one
// technique. The explicit form exists for callers whose cell set is not a
// full matrix — a frontend re-routing the subset of a batch owned by one
// worker replica, or a sweep orchestrator retrying stragglers.
type CellRequest struct {
	Workload  workloads.Ref `json:"workload"`
	Technique string        `json:"technique"`
}

// BatchRequest asks for a set of cells, in one of two shapes: the matrix
// form (every workload under every technique) or the explicit form (a
// Cells list). Exactly one shape may be used. One shared configuration
// either way. POST /v1/batch.
type BatchRequest struct {
	// Workloads are the matrix rows; Techniques the columns. Every
	// workload runs under every technique.
	Workloads  []workloads.Ref `json:"workloads,omitempty"`
	Techniques []string        `json:"techniques,omitempty"`
	// Cells is the explicit alternative to the Workloads×Techniques
	// matrix: an arbitrary cell list, answered in order. Mutually
	// exclusive with Workloads/Techniques.
	Cells []CellRequest `json:"cells,omitempty"`
	// Config is the shared core configuration; nil means
	// cpu.DefaultConfig().
	Config *cpu.Config `json:"config,omitempty"`
	// Sampling is only ever refused; see SimRequest.Sampling.
	Sampling json.RawMessage `json:"sampling,omitempty"`
	// Async makes the server answer immediately with a job id to poll at
	// GET /v1/jobs/{id} instead of blocking until the matrix completes.
	Async bool `json:"async,omitempty"`
	// TimeoutMS bounds the whole batch; 0 means the server default for
	// synchronous batches and no deadline for async ones.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// IdempotencyKey deduplicates retried batch submissions, on a single
	// dvrd, a worker and a frontend alike: an async resubmission with the
	// same key returns the original job id (and on a ledger-backed frontend
	// survives frontend restarts); a synchronous resubmission waits for the
	// job that owns the key, or joins the in-flight synchronous batch, and
	// answers deduped. The Idempotency-Key header is the equivalent
	// transport form.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// CellList expands the request to its ordered cell list: the matrix
// row-major (workloads[0] under every technique, then workloads[1], ...)
// or the explicit Cells verbatim. The index into this list is the cell
// index everywhere — BatchResponse.Cells, Event.Cell, stream filters.
func (r BatchRequest) CellList() []CellRequest {
	if len(r.Cells) > 0 {
		return r.Cells
	}
	out := make([]CellRequest, 0, len(r.Workloads)*len(r.Techniques))
	for _, w := range r.Workloads {
		for _, t := range r.Techniques {
			out = append(out, CellRequest{Workload: w, Technique: t})
		}
	}
	return out
}

// Validate rejects structurally empty batches and mixed-shape requests.
func (r BatchRequest) Validate() error {
	if r.Sampling != nil {
		return errSampling
	}
	if len(r.Cells) > 0 {
		if len(r.Workloads) > 0 || len(r.Techniques) > 0 {
			return fmt.Errorf("api: cells and workloads/techniques are mutually exclusive")
		}
		for _, c := range r.Cells {
			if c.Workload.Kernel == "" {
				return fmt.Errorf("api: cell workload.kernel is required")
			}
			if c.Technique == "" {
				return fmt.Errorf("api: cell technique is required")
			}
		}
		return nil
	}
	if len(r.Workloads) == 0 {
		return fmt.Errorf("api: workloads is required")
	}
	if len(r.Techniques) == 0 {
		return fmt.Errorf("api: techniques is required")
	}
	for _, w := range r.Workloads {
		if w.Kernel == "" {
			return fmt.Errorf("api: workload.kernel is required")
		}
	}
	for _, t := range r.Techniques {
		if t == "" {
			return fmt.Errorf("api: technique names must be non-empty")
		}
	}
	return nil
}

// BatchResponse carries the completed matrix (synchronous batches and
// finished jobs) or the job id to poll (async batches).
type BatchResponse struct {
	// JobID is set on async batches: the handle to poll at
	// GET /v1/jobs/{id} and stream at GET /v1/jobs/{id}/stream.
	JobID string `json:"job_id,omitempty"`
	// Cells is row-major: workloads[0] under every technique, then
	// workloads[1], ... len = len(Workloads) * len(Techniques).
	Cells []SimResponse `json:"cells,omitempty"`
	// CacheHits counts cells answered from the result cache.
	CacheHits int `json:"cache_hits"`
	// Failed counts cells that carry an Error instead of a Result.
	Failed int `json:"failed,omitempty"`
	// Deduped marks a response answered by an earlier submission with the
	// same idempotency key: the JobID (or Cells) belong to the original
	// job and nothing was re-executed.
	Deduped bool `json:"deduped,omitempty"`
}

// Job states reported by JobStatus.
const (
	// JobRunning: the batch is still simulating cells.
	JobRunning = "running"
	// JobDone: every cell finished; JobStatus.Batch carries the matrix.
	JobDone = "done"
	// JobError: a systemic failure (deadline, shutdown) aborted the batch.
	JobError = "error"
)

// JobStatus describes an async batch job. GET /v1/jobs/{id}. The progress
// fields (Done, Intervals, Subscribers) update live while the job runs, so
// a poller — or a dashboard fed by GET /v1/jobs/{id}/stream — can track a
// long batch without waiting for completion.
type JobStatus struct {
	// ID is the job handle returned by the async POST /v1/batch.
	ID string `json:"id"`
	// State is one of JobRunning, JobDone, JobError.
	State string `json:"state"`
	// Done counts cells completed so far (live progress).
	Done int `json:"done"`
	// Total is the number of cells in the job (workloads × techniques).
	Total int `json:"total"`
	// Intervals counts interval telemetry samples recorded so far across
	// every cell of the job — the live denominator a streaming dashboard
	// renders against. Zero unless the server runs with -trace-interval.
	Intervals uint64 `json:"intervals,omitempty"`
	// Subscribers is the number of stream sessions currently attached to
	// this job's event broadcast.
	Subscribers int `json:"subscribers,omitempty"`
	// Error carries the systemic failure when State is JobError.
	Error string `json:"error,omitempty"`
	// Batch holds the results once State is "done".
	Batch *BatchResponse `json:"batch,omitempty"`
}

// Stream event kinds carried by Event.Kind. The enum is part of the wire
// contract: new kinds may be added, existing names never change.
const (
	// EventInterval: one interval telemetry sample closed for a cell;
	// Event.Interval carries it. Emitted live while the cell simulates
	// (or replayed from the trace store for cache-hit cells, marked by
	// Event.Replayed). Requires the server to run with -trace-interval.
	EventInterval = "interval"
	// EventRunahead: one runahead episode completed on a cell's
	// simulated core; Event.Episode carries its span. Requires
	// -trace-interval (episodes ride the same per-cell recorder).
	EventRunahead = "runahead-episode"
	// EventCellStarted: a cell entered simulation (or began replaying a
	// cached series). A repeated cell-started for the same cell means
	// the cell restarted from scratch (the frontend re-dispatched it);
	// consumers must reset that cell's series.
	EventCellStarted = "cell-started"
	// EventCellDone: a cell finished; Event.Cached distinguishes cache
	// hits, Event.Error carries an isolated cell failure.
	EventCellDone = "cell-done"
	// EventJobDone: the job finished; always the final event of a
	// stream. Event.Done/Total/Error mirror the job's final status.
	EventJobDone = "job-done"
)

// KnownEventKinds lists every event kind this build emits, in the order
// a full stream can carry them.
var KnownEventKinds = []string{EventInterval, EventRunahead, EventCellStarted, EventCellDone, EventJobDone}

// Event is one element of a job's event stream (GET /v1/jobs/{id}/stream,
// SSE). IDs are per-job, strictly increasing, and stable across
// reconnects: a subscriber that resumes with Last-Event-ID: N receives
// exactly the events with ID > N still held in the job's replay window.
type Event struct {
	// ID is the event's per-job sequence number (also the SSE "id:"
	// field). Starts at 1.
	ID uint64 `json:"id"`
	// Kind is one of the Event* constants (also the SSE "event:" field).
	Kind string `json:"kind"`
	// JobID names the job this event belongs to.
	JobID string `json:"job_id"`
	// Cell is the row-major cell index (as in BatchResponse.Cells) the
	// event belongs to; -1 for job-scoped events (job-done). Batch
	// subscribers filter on it to follow one cell's subchannel.
	Cell int `json:"cell"`
	// Key is the cell's content address (same as SimResponse.Key);
	// empty on job-scoped events.
	Key string `json:"key,omitempty"`
	// Bench and Technique name the cell's workload and technique.
	Bench     string `json:"bench,omitempty"`
	Technique string `json:"technique,omitempty"`
	// Cached marks a cell-done served from the result cache (its
	// interval series, if any, was replayed from the trace store).
	Cached bool `json:"cached,omitempty"`
	// Replayed marks an interval event re-published from the trace
	// store (cache hits and single-flight followers) rather than
	// emitted live by a running simulation. The interval values are
	// identical either way.
	Replayed bool `json:"replayed,omitempty"`
	// Error carries an isolated cell failure (cell-done) or the job's
	// systemic failure (job-done).
	Error string `json:"error,omitempty"`
	// Interval is the telemetry sample of an "interval" event.
	Interval *trace.Interval `json:"interval,omitempty"`
	// Episode is the span of a "runahead-episode" event.
	Episode *RunaheadEpisode `json:"episode,omitempty"`
	// Done/Total report job progress on cell-done and job-done events.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`

	// Tail, when non-nil, stands in for every member after Technique: it
	// is their JSON exactly as the stream frame this event was read from
	// carried it, from the comma before the first of them (or the
	// object's closing brace when there are none). A relay keeps the
	// telemetry it only forwards this way instead of decoding it
	// (client.Stream.NextRelay); the fields it stands in for are zero.
	// It is never a member of its own.
	Tail []byte `json:"-"`
}

// Terminal reports whether ev is a cell-done or job-done: an event a
// consumer cannot do without, since it tells a finished cell or the
// finished job apart from a lost one. A stream never drops one and never
// holds one back.
func (ev *Event) Terminal() bool { return ev.Kind == EventCellDone || ev.Kind == EventJobDone }

// RunaheadEpisode is one completed runahead episode: the span of simulated
// cycles the engine ran ahead, where it triggered, and how wide it went.
type RunaheadEpisode struct {
	// StartCycle/EndCycle bound the episode on the simulated clock.
	StartCycle uint64 `json:"start_cycle"`
	EndCycle   uint64 `json:"end_cycle"`
	// PC is the program counter of the triggering load.
	PC int `json:"pc"`
	// Lanes is the vector width of the episode.
	Lanes uint64 `json:"lanes"`
	// Reason is the spawn reason ("stall", "stride", "nested").
	Reason string `json:"reason"`
}

// StreamOptions select what a stream subscriber receives. They arrive as
// query parameters on GET /v1/jobs/{id}/stream (kinds, cell) plus the
// standard Last-Event-ID header; the struct is the typed form the client
// library speaks. A subscriber sizes nothing on the server: it reads the
// job's one bounded event log (dvrd -stream-replay events), and one that
// falls further behind loses its oldest unread telemetry, never a
// cell-done or job-done (counted at /metrics).
type StreamOptions struct {
	// Kinds filters the stream to these event kinds (?kinds=a,b); empty
	// means every kind.
	Kinds []string `json:"kinds,omitempty"`
	// Cell, when non-nil, filters the stream to one cell's subchannel
	// plus job-scoped events (?cell=N).
	Cell *int `json:"cell,omitempty"`
	// LastEventID resumes the stream after the given event id (the SSE
	// Last-Event-ID mechanism); 0 means from the oldest event the job's
	// log retains.
	LastEventID uint64 `json:"last_event_id,omitempty"`
}

// Validate rejects options that cannot describe a subscription.
func (o StreamOptions) Validate() error {
	for _, k := range o.Kinds {
		known := false
		for _, want := range KnownEventKinds {
			if k == want {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("api: unknown stream event kind %q (known: %v)", k, KnownEventKinds)
		}
	}
	if o.Cell != nil && *o.Cell < 0 {
		return fmt.Errorf("api: stream cell must be >= 0, got %d", *o.Cell)
	}
	return nil
}

// JobTrace is the interval telemetry of a finished async job.
// GET /v1/jobs/{id}/trace. It is only available when the server runs with
// interval tracing enabled (dvrd -trace-interval); cells whose telemetry
// has aged out of the trace store carry Missing instead of Intervals.
type JobTrace struct {
	JobID string `json:"job_id"`
	// IntervalInsts is the sampling cadence (committed instructions per
	// interval) the server was configured with.
	IntervalInsts uint64 `json:"interval_insts"`
	// Cells is row-major like BatchResponse.Cells.
	Cells []CellTrace `json:"cells"`
}

// CellTrace is one cell's interval series, keyed by the cell's content
// address (the same Key as SimResponse).
type CellTrace struct {
	// Key is the cell's content address (same as SimResponse.Key).
	Key string `json:"key"`
	// Bench and Technique name the cell's workload and technique.
	Bench     string `json:"bench"`
	Technique string `json:"technique"`
	// Missing is set when the cell's telemetry is not in the trace store
	// (tracing disabled, evicted, or the cell was served from a result
	// cache populated before tracing was enabled).
	Missing   bool             `json:"missing,omitempty"`
	Intervals []trace.Interval `json:"intervals,omitempty"`
}

// SpanSlice is one process's collected spans for a single trace.
// GET /v1/spans?trace={id} on any role returns its own slice; the
// frontend's cluster trace view pulls worker slices through this shape.
type SpanSlice struct {
	// Proc names the contributing process (dvrd -role plus listen
	// address, e.g. "worker@127.0.0.1:8381").
	Proc string `json:"proc"`
	// TraceID is the trace the spans belong to.
	TraceID string `json:"trace_id"`
	// Spans is the slice in canonical order (start, name, span id).
	Spans []obs.SpanRecord `json:"spans"`
	// Err is set (and Spans empty) when the process could not be reached
	// for its slice — the cluster view degrades per-replica, it never
	// fails whole because one worker died after finishing its spans.
	Err string `json:"error,omitempty"`
}

// ClusterTrace is the fleet-merged distributed trace of one async job:
// GET /v1/jobs/{id}/trace?view=cluster on a frontend. One slice per
// process that holds spans for the job's trace id, frontend first, then
// workers sorted by name. &format=perfetto renders the same data as a
// Chrome trace-event document with one track per process instead.
type ClusterTrace struct {
	JobID   string      `json:"job_id"`
	TraceID string      `json:"trace_id"`
	Slices  []SpanSlice `json:"slices"`
}

// Error is the JSON body of every non-2xx response (and of failed batch
// cells). Code classifies the failure for programmatic handling; see
// DESIGN.md's "failure model" section for the full table.
type Error struct {
	// Code is one of: bad_request, timeout, canceled, overloaded,
	// shutting_down, internal, not_found.
	Code string `json:"code,omitempty"`
	// Error is the human-readable failure description.
	Error string `json:"error"`
}

// Error codes carried by Error.Code. Overloaded and ShuttingDown are
// retryable (the response carries a Retry-After header and jobs are
// idempotent by cache key); the others are not.
const (
	CodeBadRequest   = "bad_request"
	CodeTimeout      = "timeout"
	CodeCanceled     = "canceled"
	CodeOverloaded   = "overloaded"
	CodeShuttingDown = "shutting_down"
	CodeInternal     = "internal"
	CodeNotFound     = "not_found"
)

// Metrics is the GET /metrics snapshot. Each number in it is also a series
// of the Prometheus text form, named after its JSON key (internal/service,
// metrics.go), so a field added here is exposed in both.
type Metrics struct {
	// UptimeSeconds is the time since server start.
	UptimeSeconds float64 `json:"uptime_seconds"`

	// Workers is the configured simulation parallelism; BusyWorkers how
	// many are simulating right now; QueueDepth how many tasks wait.
	Workers     int `json:"workers"`
	BusyWorkers int `json:"busy_workers"`
	QueueDepth  int `json:"queue_depth"`

	// CacheEntries/Hits/Misses/HitRate describe the content-addressed
	// result cache; SingleFlightShared counts requests answered by
	// joining an identical in-flight job instead of re-simulating.
	CacheEntries       int     `json:"cache_entries"`
	CacheHits          uint64  `json:"cache_hits"`
	CacheMisses        uint64  `json:"cache_misses"`
	CacheHitRate       float64 `json:"cache_hit_rate"`
	SingleFlightShared uint64  `json:"single_flight_shared"`

	// SimsCompleted counts detailed simulations this process ran to
	// completion and committed to the cache. CacheMisses counts at lookup
	// time, so a run cancelled mid-simulation (caller disconnected,
	// frontend crashed) still registers a miss; SimsCompleted does not.
	// Summed across a fleet it equals the number of unique cells executed
	// — the counter exactly-once checks should assert on.
	SimsCompleted uint64 `json:"sims_completed"`

	// JobsActive/JobsDone count async batch jobs by state.
	JobsActive int `json:"jobs_active"`
	JobsDone   int `json:"jobs_done"`

	// DeadlineRejected counts requests answered 504 on arrival because
	// their propagated deadline budget could not fit any work.
	DeadlineRejected uint64 `json:"deadline_rejected"`

	// PanicsRecovered counts worker panics recovered into per-job errors;
	// ShedTotal is the worker's one 429 counter: interactive sims and
	// synchronous batches shed because the pool's queue was full;
	// SingleFlightRetries counts followers that re-ran a job after their
	// leader failed; SpillQuarantined counts corrupt disk-spill entries
	// moved to the quarantine directory (startup scan + runtime reads).
	PanicsRecovered     uint64 `json:"panics_recovered"`
	ShedTotal           uint64 `json:"shed_total"`
	SingleFlightRetries uint64 `json:"single_flight_retries"`
	SpillQuarantined    uint64 `json:"spill_quarantined"`

	// CheckpointsWritten / CheckpointsResumed count durable-checkpoint
	// activity (zero unless checkpointing is configured);
	// CheckpointWriteErrors counts checkpoint saves that failed (the run
	// continues without that resume point); CheckpointsQuarantined counts
	// corrupt checkpoint files moved to quarantine; WatchdogTrips counts
	// simulations aborted by the retirement watchdog with a livelock
	// error and forensics dump.
	CheckpointsWritten     uint64 `json:"checkpoints_written"`
	CheckpointsResumed     uint64 `json:"checkpoints_resumed"`
	CheckpointWriteErrors  uint64 `json:"checkpoint_write_errors"`
	CheckpointsQuarantined uint64 `json:"checkpoints_quarantined"`
	WatchdogTrips          uint64 `json:"watchdog_trips"`

	// SimInstructions is the cumulative timed-instruction count simulated
	// by this process (experiments.SimInstructions); SimMIPS divides the
	// portion simulated since server start by the uptime.
	SimInstructions uint64  `json:"sim_instructions"`
	SimMIPS         float64 `json:"sim_mips"`

	// RequestsTotal counts HTTP requests served (all routes);
	// TracesStored counts cell interval-series currently held by the
	// trace store (zero unless the server runs with -trace-interval).
	RequestsTotal uint64 `json:"requests_total"`
	TracesStored  int    `json:"traces_stored"`

	// StreamSessionsActive counts currently attached stream sessions;
	// StreamSessionsOpened counts every session ever opened;
	// StreamEventsPublished counts events fanned out across all jobs;
	// StreamEventsDropped sums every session's drop-oldest counter (a
	// nonzero value means some subscriber could not keep up and lost
	// its oldest undelivered events).
	StreamSessionsActive  int    `json:"stream_sessions_active"`
	StreamSessionsOpened  uint64 `json:"stream_sessions_opened"`
	StreamEventsPublished uint64 `json:"stream_events_published"`
	StreamEventsDropped   uint64 `json:"stream_events_dropped"`
	// StreamSessions lists the currently attached sessions with their
	// per-session delivery and drop counters (the JSON face of the
	// per-session dvrd_stream_session_dropped and _delivered Prometheus
	// series).
	StreamSessions []StreamSession `json:"stream_sessions,omitempty"`

	// ObsSpans is how many finished spans the distributed-tracing
	// collector currently holds (zero unless -trace-spans > 0);
	// ObsSpansDropped counts spans evicted because the bounded ring
	// wrapped — a nonzero value means old traces are incomplete and the
	// ring should be sized up.
	ObsSpans        int    `json:"obs_spans"`
	ObsSpansDropped uint64 `json:"obs_spans_dropped"`

	// IdempotentHits counts submissions answered by an earlier job or an
	// in-flight request with the same idempotency key instead of executing.
	IdempotentHits uint64 `json:"idempotent_hits"`
}

// ClusterMetrics is the GET /metrics snapshot of a frontend: routing and
// failover counters plus per-replica health gauges. Workers serve the
// plain Metrics shape; the two are distinguished by the "role" field. Its
// numbers are Prometheus series too, as Metrics' are.
type ClusterMetrics struct {
	// Role is "frontend" (workers report plain Metrics with no role field).
	Role string `json:"role"`
	// UptimeSeconds is the time since frontend start.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// RequestsTotal counts HTTP requests served (all routes).
	RequestsTotal uint64 `json:"requests_total"`

	// ReplicasUp/Draining/Dead tally the worker fleet by probed state.
	ReplicasUp       int `json:"replicas_up"`
	ReplicasDraining int `json:"replicas_draining"`
	ReplicasDead     int `json:"replicas_dead"`

	// RoutedTotal counts cells routed to their ring owner; Failovers
	// counts cells re-routed to a ring successor because a preferred
	// replica was dead (or died mid-job); FailoverExhausted counts cells
	// that ran out of live candidates and failed back to the client.
	RoutedTotal       uint64 `json:"routed_total"`
	Failovers         uint64 `json:"failovers"`
	FailoverExhausted uint64 `json:"failover_exhausted"`

	// ProbesTotal/ProbeFailures aggregate heartbeat activity across the
	// fleet.
	ProbesTotal   uint64 `json:"probes_total"`
	ProbeFailures uint64 `json:"probe_failures"`

	// JobsActive/JobsDone count frontend-coordinated async batch jobs.
	JobsActive int `json:"jobs_active"`
	JobsDone   int `json:"jobs_done"`

	// LedgerRecords counts records durably appended to the job ledger;
	// LedgerAppendErrors counts appends that failed (the job proceeded
	// without that durability point); LedgerQuarantined counts corrupt
	// journals moved to quarantine; LedgerTornRepaired counts torn
	// journal tails dropped and repaired; LedgerJobsRecovered counts
	// pending jobs a frontend boot replayed from the ledger and
	// re-dispatched. All zero when the frontend runs without -ledger-dir.
	LedgerRecords       uint64 `json:"ledger_records"`
	LedgerAppendErrors  uint64 `json:"ledger_append_errors"`
	LedgerQuarantined   uint64 `json:"ledger_quarantined"`
	LedgerTornRepaired  uint64 `json:"ledger_torn_repaired"`
	LedgerJobsRecovered uint64 `json:"ledger_jobs_recovered"`

	// IdempotentHits counts submissions answered by an earlier job with
	// the same idempotency key instead of executing.
	IdempotentHits uint64 `json:"idempotent_hits"`

	// HedgesLaunched counts backup dispatches fired for straggling cells;
	// HedgesWon counts hedges whose backup answered first (the original
	// was cancelled and its ledger record names the winner).
	HedgesLaunched uint64 `json:"hedges_launched"`
	HedgesWon      uint64 `json:"hedges_won"`

	// DeadlineRejected counts requests answered 504 on arrival because
	// their propagated deadline budget was already exhausted.
	DeadlineRejected uint64 `json:"deadline_rejected"`

	// ObsSpans / ObsSpansDropped mirror the worker fields: span-collector
	// occupancy and ring-wrap evictions for the frontend's own tracer.
	ObsSpans        int    `json:"obs_spans"`
	ObsSpansDropped uint64 `json:"obs_spans_dropped"`

	// Replicas is the per-replica health detail, sorted by name.
	Replicas []ReplicaStatus `json:"replicas"`
}

// ReplicaStatus is one worker replica's health as the frontend's prober
// sees it.
type ReplicaStatus struct {
	// Name is the replica's base URL as configured (-replicas).
	Name string `json:"name"`
	// State is "up", "draining" or "dead".
	State string `json:"state"`
	// ConsecFails counts consecutive failed probes (resets on success).
	ConsecFails int `json:"consec_fails,omitempty"`
	// ProbesTotal/ProbeFailures count this replica's heartbeat history.
	ProbesTotal   uint64 `json:"probes_total"`
	ProbeFailures uint64 `json:"probe_failures,omitempty"`
	// LastError is the most recent probe or data-path failure, if any.
	LastError string `json:"last_error,omitempty"`
	// LastTraceID is the trace id of the most recent data-path failure
	// reported against this replica — the starting point for "why is
	// this worker dead" forensics.
	LastTraceID string `json:"last_trace_id,omitempty"`
}

// StreamSession is one live subscriber's accounting snapshot at /metrics.
type StreamSession struct {
	// ID is the server-assigned session identifier.
	ID string `json:"id"`
	// JobID names the job the session is subscribed to.
	JobID string `json:"job_id"`
	// Delivered counts events handed to the subscriber so far.
	Delivered uint64 `json:"delivered"`
	// Dropped counts telemetry events the subscriber lost, oldest
	// first, by falling more than the job's event-log bound behind (the
	// backpressure policy).
	Dropped uint64 `json:"dropped"`
	// AgeSeconds is how long the session has been attached.
	AgeSeconds float64 `json:"age_seconds"`
}

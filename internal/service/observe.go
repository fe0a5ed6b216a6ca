package service

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"dvr/internal/obs"
	"dvr/internal/service/api"
)

// Request observability: every request gets a request ID (reused from an
// inbound X-Request-ID when the caller — typically a frontend — minted
// one, otherwise server-assigned; echoed as X-Request-ID and threaded
// through the context), a distributed-tracing span continuing any
// propagated X-Trace-Ctx context, a structured slog line with span
// timings (queue wait → simulate → encode) and trace_id/span_id fields,
// and a sample in the request-duration histogram (metrics.go).

// spans accumulates the phase timings of one request. Batch requests fan
// out to many cells, so the adders take a lock and sum: the logged
// queue_wait and sim spans are totals across the request's cells.
type spans struct {
	mu        sync.Mutex
	queueWait time.Duration
	sim       time.Duration
	encode    time.Duration
}

func (sp *spans) addQueueWait(d time.Duration) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.queueWait += d
	sp.mu.Unlock()
}

func (sp *spans) addSim(d time.Duration) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.sim += d
	sp.mu.Unlock()
}

func (sp *spans) addEncode(d time.Duration) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.encode += d
	sp.mu.Unlock()
}

func (sp *spans) snapshot() (queueWait, sim, encode time.Duration) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.queueWait, sp.sim, sp.encode
}

type ctxKey int

const ctxKeySpans ctxKey = iota

func spansFrom(ctx context.Context) *spans {
	sp, _ := ctx.Value(ctxKeySpans).(*spans)
	return sp
}

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so SSE responses stream through
// the instrumentation instead of buffering behind it.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the routed handler with per-request observability:
// ID assignment, span accumulation, the duration histogram, the request
// counter, and one structured log line per request. The span collector
// may be nil — tracing disabled — at zero cost on this path.
func (co *core) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Reuse a propagated request id so the frontend's and the worker's
		// log lines for the same hop carry the same id; mint one only at
		// the edge (no inbound id).
		reqID := r.Header.Get(api.HeaderRequestID)
		if reqID == "" {
			reqID = fmt.Sprintf("req-%06d", co.reqSeq.Add(1))
		}
		w.Header().Set(api.HeaderRequestID, reqID)
		ctx := obs.ContextWithRequestID(r.Context(), reqID)
		sp := &spans{}
		ctx = context.WithValue(ctx, ctxKeySpans, sp)
		// The server span continues a propagated X-Trace-Ctx context (a
		// frontend hop) or roots a fresh trace (an edge request). With
		// tracing disabled span is nil and every call below is a no-op.
		span := co.tracer.StartRemote(obs.Extract(r.Header), r.Method+" "+r.URL.Path)
		span.Attr("request_id", reqID)
		ctx = obs.ContextWithSpan(ctx, span)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r.WithContext(ctx))
		dur := time.Since(start)
		co.reqTotal.Add(1)
		co.reqHist.observeTraced(dur, span.TraceID())
		span.Attr("status", fmt.Sprintf("%d", rec.code))
		span.End()
		if !co.logger.Enabled(ctx, slog.LevelInfo) {
			return
		}
		qw, sim, enc := sp.snapshot()
		co.logger.Info("request",
			"id", reqID,
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.code,
			"duration_ms", ms(dur),
			"queue_wait_ms", ms(qw),
			"sim_ms", ms(sim),
			"encode_ms", ms(enc),
			"trace_id", span.TraceID(),
			"span_id", span.SpanID(),
		)
	})
}

// discardHandler is the handler of a Config without a Logger. Enabled
// reports false, so a log call returns before it builds a record; a text
// handler over io.Discard formats every record and throws it away.
// (slog.DiscardHandler is Go 1.24; go.mod says 1.22.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// writeJSONTimed is writeJSON plus encode-span accounting, for handlers
// whose response body is the expensive part (full batch matrices).
func writeJSONTimed(ctx context.Context, w http.ResponseWriter, code int, v any) {
	start := time.Now()
	writeJSON(w, code, v)
	encodeDone(ctx, start)
}

// encodeDone accounts the time since start to the request's encode span.
func encodeDone(ctx context.Context, start time.Time) {
	spansFrom(ctx).addEncode(time.Since(start))
	obs.FromContext(ctx).StartChildAt("encode", start).End()
}

// handleSpans answers GET /v1/spans?trace={id} on either role: the
// process's collected span slice for one trace, in canonical order. The
// frontend's cluster trace view is assembled from these.
func (co *core) handleSpans(w http.ResponseWriter, r *http.Request) {
	if co.tracer == nil {
		writeJSON(w, http.StatusNotFound, api.Error{Code: api.CodeNotFound,
			Error: "service: span tracing is disabled (start dvrd with -trace-spans)"})
		return
	}
	tid := r.URL.Query().Get("trace")
	if tid == "" {
		writeJSON(w, http.StatusBadRequest, api.Error{Code: api.CodeBadRequest,
			Error: "service: /v1/spans requires ?trace=<trace id>"})
		return
	}
	spans := co.tracer.Slice(tid)
	if spans == nil {
		spans = []obs.SpanRecord{}
	}
	writeJSON(w, http.StatusOK, api.SpanSlice{Proc: co.tracer.Proc(), TraceID: tid, Spans: spans})
}

// handleJobTrace serves the interval telemetry of a finished async job:
// one series per cell, looked up in the trace store by the cell's cache
// key. GET /v1/jobs/{id}/trace.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, api.Error{Code: api.CodeNotFound, Error: fmt.Sprintf("service: unknown job %q", id)})
		return
	}
	if s.cfg.TraceIntervalEvery == 0 {
		writeJSON(w, http.StatusNotFound, api.Error{Code: api.CodeNotFound,
			Error: "service: interval tracing is disabled (start dvrd with -trace-interval)"})
		return
	}
	st := j.status()
	if st.State != api.JobDone || st.Batch == nil {
		writeJSON(w, http.StatusConflict, api.Error{Code: api.CodeBadRequest,
			Error: fmt.Sprintf("service: job %q is %s; trace is available once it is done", id, st.State)})
		return
	}
	out := api.JobTrace{JobID: id, IntervalInsts: s.cfg.TraceIntervalEvery}
	for _, c := range st.Batch.Cells {
		ct := api.CellTrace{Key: c.Key, Bench: c.Result.Name, Technique: c.Result.Technique}
		if ivs, ok := s.traces.Get(c.Key); ok {
			ct.Intervals = ivs
		} else {
			ct.Missing = true
		}
		out.Cells = append(out.Cells, ct)
	}
	writeJSONTimed(r.Context(), w, http.StatusOK, out)
}

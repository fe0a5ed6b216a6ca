package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dvr/internal/service/api"
	"dvr/internal/stream"
	"dvr/internal/trace"
)

// Live job streaming: every async batch job owns a stream.Broadcaster fed
// from three places — the batch runner (cell lifecycle), the per-cell
// trace hooks (interval telemetry and runahead episodes, on the sim
// goroutine), and the trace store (replayed series for cells answered
// from the cache or another request's single-flight leader). Subscribers
// attach over SSE at GET /v1/jobs/{id}/stream as cursors into the job's
// one bounded event log; its policies (publish never blocks, drop-oldest
// telemetry with counters) are what let the simulation stay bit-identical
// under observation.

// cellPub carries one batch cell's streaming identity down through
// runCell into the simulation's trace hooks. A nil *cellPub (interactive
// /v1/sim, sync batches, checkpoint resume) publishes nothing.
type cellPub struct {
	j     *job
	cell  int
	bench string
	tech  string
}

// live reports whether events published through p can reach a stream.
func (p *cellPub) live() bool {
	return p != nil && p.j != nil && p.j.bc != nil
}

// publish stamps the cell identity onto ev and fans it out. Interval
// events also advance the job's live interval counter (JobStatus).
func (p *cellPub) publish(ev api.Event) {
	if !p.live() {
		return
	}
	ev.Cell = p.cell
	if ev.Bench == "" {
		ev.Bench = p.bench
	}
	if ev.Technique == "" {
		ev.Technique = p.tech
	}
	if ev.Kind == api.EventInterval {
		p.j.intervals.Add(1)
	}
	p.j.bc.Publish(ev)
}

// done records the cell's answer on its job's progress and publishes its
// cell-done event.
func (p *cellPub) done(resp api.SimResponse) {
	if p == nil {
		return
	}
	ev := api.Event{Kind: api.EventCellDone, Key: resp.Key, Cached: resp.Cached, Done: p.j.cellDone(), Total: p.j.total}
	if resp.Error != nil {
		ev.Error = resp.Error.Error
	}
	p.publish(ev)
}

// traceHooks returns the live OnInterval/OnEvent hooks for one cell, or
// zero hooks when the cell is unobserved (so an unstreamed simulation's
// recorder config is exactly what it was before streaming existed).
func (p *cellPub) traceHooks() (onInterval func(trace.Interval), onEvent func(trace.Event)) {
	if !p.live() {
		return nil, nil
	}
	onInterval = func(iv trace.Interval) {
		p.publish(api.Event{Kind: api.EventInterval, Interval: &iv})
	}
	onEvent = func(ev trace.Event) {
		if ev.Kind != trace.EvRunaheadSpawn {
			return
		}
		p.publish(api.Event{Kind: api.EventRunahead, Episode: &api.RunaheadEpisode{
			StartCycle: ev.Cycle,
			EndCycle:   ev.End,
			PC:         ev.PC,
			Lanes:      ev.Arg,
			Reason:     trace.ReasonString(ev.Arg2),
		}})
	}
	return onInterval, onEvent
}

// replayTrace publishes a cell's stored interval series to its job
// stream, marked Replayed: the cell was answered without running (cache
// hit) or ran under another request's flight, so its subscribers never
// saw live samples. The stored series is the same []trace.Interval the
// post-hoc /trace endpoint serves, so the streamed and stored views stay
// element-identical.
func (s *Server) replayTrace(p *cellPub, key string, cached bool) {
	if !p.live() || s.cfg.TraceIntervalEvery == 0 {
		return
	}
	ivs, ok := s.traces.Get(key)
	if !ok {
		return
	}
	for i := range ivs {
		iv := ivs[i]
		p.publish(api.Event{Kind: api.EventInterval, Cached: cached, Replayed: true, Interval: &iv})
	}
}

// ---- SSE handler ----

// parseStreamOptions reads GET /v1/jobs/{id}/stream's query parameters
// (and the standard Last-Event-ID reconnect header, which wins over the
// query form) into api.StreamOptions.
func parseStreamOptions(r *http.Request) (api.StreamOptions, error) {
	q := r.URL.Query()
	var opts api.StreamOptions
	if raw := q.Get("kinds"); raw != "" {
		opts.Kinds = strings.Split(raw, ",")
	}
	if raw := q.Get("cell"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			return opts, fmt.Errorf("service: bad cell %q: %w", raw, err)
		}
		opts.Cell = &n
	}
	if raw := q.Get("last_event_id"); raw != "" {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("service: bad last_event_id %q: %w", raw, err)
		}
		opts.LastEventID = n
	}
	if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("service: bad Last-Event-ID header %q: %w", raw, err)
		}
		opts.LastEventID = n
	}
	return opts, opts.Validate()
}

// filterFor compiles StreamOptions into the session's event filter (nil
// when the subscription is unfiltered). A cell filter keeps job-scoped
// events (Cell < 0): a per-cell dashboard still needs to see job-done.
func filterFor(opts api.StreamOptions) func(api.Event) bool {
	if len(opts.Kinds) == 0 && opts.Cell == nil {
		return nil
	}
	var kinds map[string]bool
	if len(opts.Kinds) > 0 {
		kinds = make(map[string]bool, len(opts.Kinds))
		for _, k := range opts.Kinds {
			kinds[k] = true
		}
	}
	cell := opts.Cell
	return func(ev api.Event) bool {
		if kinds != nil && !kinds[ev.Kind] {
			return false
		}
		if cell != nil && ev.Cell >= 0 && ev.Cell != *cell {
			return false
		}
		return true
	}
}

// handleJobStream serves GET /v1/jobs/{id}/stream: the job's event feed
// as Server-Sent Events, on either role (a frontend republishes its
// workers' events into its own jobs' broadcasters, so subscribers see one
// stream regardless of which replica simulates which cell). Each frame
// carries the event's id (the SSE resume cursor — reconnecting with
// Last-Event-ID picks up from the job's event log), its kind as the SSE
// event name, and the api.Event JSON as data. Idle periods are bridged
// with comment heartbeats so proxies do not reap the connection. The
// stream ends after the job's terminal event (job-done) has been
// delivered and the broadcaster closed.
func (co *core) handleJobStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := co.jobs.get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, api.Error{Code: api.CodeNotFound, Error: fmt.Sprintf("service: unknown job %q", id)})
		return
	}
	if j.bc == nil {
		writeJSON(w, http.StatusNotFound, api.Error{Code: api.CodeNotFound,
			Error: fmt.Sprintf("service: job %q has no stream", id)})
		return
	}
	opts, err := parseStreamOptions(r)
	if err != nil {
		writeError(w, badRequest(err))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, api.Error{Code: api.CodeInternal,
			Error: "service: response writer does not support streaming"})
		return
	}
	sess := j.bc.Subscribe(stream.SubOptions{After: opts.LastEventID, Filter: filterFor(opts)})
	defer sess.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass frames through
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// A frame is written when its event is dequeued, but flushed (one chunk,
	// one write syscall) only when the queue runs empty: a burst of queued
	// events costs one flush, and a subscriber that has fallen behind
	// catches up instead of falling further behind. A burst of telemetry
	// alone first lingers (co.linger), so that events published close
	// together share its flush; a cell-done, a job-done or the end of the
	// stream cuts the linger short and leaves with everything before it.
	var (
		frames   = newFrameEncoder()
		dirty    bool // frames written since the last Flush
		urgent   bool // one of them is a cell-done or job-done
		lingered bool // this burst has had its linger
	)
	flush := func() {
		if dirty {
			fl.Flush()
		}
		dirty, urgent, lingered = false, false, false
	}
	for {
		ev, ok, err := sess.TryNext()
		if !ok && err == nil {
			if dirty && !urgent && !lingered {
				sess.Linger(r.Context(), co.linger)
				lingered = true
				continue
			}
			// Nothing queued: put the burst on the wire, then wait. Only a
			// wait arms the heartbeat timeout.
			flush()
			ctx, cancel := context.WithTimeout(r.Context(), co.opts.StreamHeartbeat)
			ev, err = sess.Next(ctx)
			cancel()
		}
		switch {
		case err == nil:
			frame, err := frames.frame(&ev)
			if err != nil {
				return
			}
			_, _ = w.Write(frame)
			dirty = true
			urgent = urgent || ev.Terminal()
		case errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil:
			// Quiet interval: heartbeat comment, keep the connection warm.
			fmt.Fprint(w, ": hb\n\n")
			fl.Flush()
		default:
			// Clean end (stream.ErrClosed: the job finished and every
			// retained event past the cursor is written), client gone, or
			// server shutdown.
			flush()
			return
		}
	}
}

// streamLinger is how long an SSE writer holding only telemetry waits for
// more before it flushes: long enough that the events a simulation
// publishes close together (one per interval, one per runahead episode)
// leave in one chunk instead of one each, short next to the interval a
// dashboard redraws at. Terminal events never wait for it.
const streamLinger = 10 * time.Millisecond

// frameEncoder writes SSE frames into one buffer it reuses.
type frameEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

func newFrameEncoder() *frameEncoder {
	f := &frameEncoder{}
	f.enc = json.NewEncoder(&f.buf)
	return f
}

// frame returns ev's SSE frame: its id (the resume cursor), its kind as
// the event name, and its JSON as one data line. An event carrying its
// payload as bytes (Tail, a relay's telemetry) has its head written here
// member for member as encoding/json writes it, and the bytes after it.
// The frame is valid until the next call.
func (f *frameEncoder) frame(ev *api.Event) ([]byte, error) {
	f.buf.Reset()
	fmt.Fprintf(&f.buf, "id: %d\nevent: %s\ndata: ", ev.ID, ev.Kind)
	if ev.Tail == nil {
		// The encoder's output has no newline but the one it ends with,
		// so one data: line holds the whole event.
		if err := f.enc.Encode(ev); err != nil {
			return nil, err
		}
	} else {
		f.buf.Write(appendEventHead(f.buf.AvailableBuffer(), ev))
		f.buf.Write(ev.Tail)
		f.buf.WriteByte('\n')
	}
	f.buf.WriteByte('\n')
	return f.buf.Bytes(), nil
}

// appendEventHead appends ev's JSON up to and including Technique, as
// encoding/json writes it; ev.Tail is the rest.
func appendEventHead(dst []byte, ev *api.Event) []byte {
	dst = strconv.AppendUint(append(dst, `{"id":`...), ev.ID, 10)
	dst = appendJSONString(append(dst, `,"kind":`...), ev.Kind)
	dst = appendJSONString(append(dst, `,"job_id":`...), ev.JobID)
	dst = strconv.AppendInt(append(dst, `,"cell":`...), int64(ev.Cell), 10)
	for _, m := range [...]struct{ name, v string }{
		{`,"key":`, ev.Key}, {`,"bench":`, ev.Bench}, {`,"technique":`, ev.Technique},
	} {
		if m.v != "" {
			dst = appendJSONString(append(dst, m.name...), m.v)
		}
	}
	return dst
}

// appendJSONString appends s as encoding/json writes a string: printable
// ASCII as it is, and anything else through the encoder itself.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || strings.IndexByte(`"\<>&`, c) >= 0 {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// ---- typed-error normalization ----

// codeForStatus maps a raw HTTP status to the api.Error code the typed
// failure model uses for it.
func codeForStatus(code int) string {
	switch {
	case code == http.StatusNotFound:
		return api.CodeNotFound
	case code >= 400 && code < 500:
		return api.CodeBadRequest
	default:
		return api.CodeInternal
	}
}

// errorNormalizer rewrites any non-2xx response that is not already
// typed JSON — in practice the ServeMux's built-in plain-text 404/405
// pages — into an api.Error body, so every error a client can receive
// from this server decodes the same way. Responses the handlers write
// themselves (always application/json) pass through untouched.
type errorNormalizer struct {
	http.ResponseWriter
	req         *http.Request
	wroteHeader bool
	swallow     bool // a synthesized body replaced the handler's
}

func (e *errorNormalizer) WriteHeader(code int) {
	if e.wroteHeader {
		return
	}
	e.wroteHeader = true
	ct := e.Header().Get("Content-Type")
	if code >= 400 && !strings.HasPrefix(ct, "application/json") {
		e.swallow = true
		e.Header().Set("Content-Type", "application/json")
		e.ResponseWriter.WriteHeader(code)
		body, _ := json.MarshalIndent(api.Error{
			Code:  codeForStatus(code),
			Error: fmt.Sprintf("service: %s %s: %s", e.req.Method, e.req.URL.Path, strings.ToLower(http.StatusText(code))),
		}, "", "  ")
		_, _ = e.ResponseWriter.Write(append(body, '\n'))
		return
	}
	e.ResponseWriter.WriteHeader(code)
}

func (e *errorNormalizer) Write(b []byte) (int, error) {
	if !e.wroteHeader {
		e.WriteHeader(http.StatusOK)
	}
	if e.swallow {
		// Pretend the handler's plain-text body was written; the typed one
		// already went out.
		return len(b), nil
	}
	return e.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so SSE works through the
// middleware stack.
func (e *errorNormalizer) Flush() {
	if f, ok := e.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// normalizeErrors wraps a handler in the errorNormalizer.
func normalizeErrors(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&errorNormalizer{ResponseWriter: w, req: r}, r)
	})
}

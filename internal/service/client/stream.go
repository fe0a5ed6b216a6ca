package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"dvr/internal/obs"
	"dvr/internal/service/api"
)

// Stream is a pull iterator over one job's live event feed
// (GET /v1/jobs/{id}/stream). Call Next until it returns io.EOF (the job
// finished and its stream ended cleanly) or another error. Disconnects
// are absorbed internally: the iterator reconnects with the client's
// jittered backoff under the same retry budget as every other call,
// resuming from the last delivered event id via Last-Event-ID, so a
// server restart mid-job costs the consumer nothing but latency (plus
// any events that aged out of the server's replay window).
//
// A Stream is not safe for concurrent use; one goroutine consumes it.
type Stream struct {
	c     *Client
	jobID string
	opts  api.StreamOptions
	ctx   context.Context

	resp    *http.Response
	br      *bufio.Reader
	data    []byte // the current frame's data, reused across frames
	long    []byte // a line longer than br's buffer, reused
	lastID  uint64
	sawDone bool
	err     error // sticky terminal state

	attempt int
	slept   time.Duration
}

// Stream subscribes to jobID's event feed. The connection is made lazily
// on the first Next call. opts filters and positions the subscription;
// the zero value streams everything from the oldest retained event.
func (c *Client) Stream(ctx context.Context, jobID string, opts api.StreamOptions) *Stream {
	s := &Stream{c: c, jobID: jobID, opts: opts, ctx: ctx, lastID: opts.LastEventID}
	if err := opts.Validate(); err != nil {
		s.err = err
	}
	return s
}

// LastEventID reports the id of the last event Next returned — the
// cursor a new Stream would resume from.
func (s *Stream) LastEventID() uint64 { return s.lastID }

// Close releases the underlying connection. Next returns io.EOF after.
func (s *Stream) Close() {
	s.disconnect()
	if s.err == nil {
		s.err = io.EOF
	}
}

// Next returns the next event, blocking for it — across server
// heartbeats, drops, and reconnects — until one arrives or the stream
// ends. io.EOF is the clean end: the job finished and its final buffered
// event has been delivered.
func (s *Stream) Next() (api.Event, error) { return s.next(false) }

// NextRelay is Next for a consumer that forwards the telemetry it reads
// without looking into it. A cell-done or job-done is decoded in full, as
// Next decodes it. Any other event whose JSON is in encoding/json's form
// (compact, members in api.Event's order, no escapes in the strings up to
// technique, no done or total) has only its members up to Technique
// decoded; the rest is kept, as read, in Event.Tail. Any other frame is
// decoded in full.
func (s *Stream) NextRelay() (api.Event, error) { return s.next(true) }

func (s *Stream) next(relay bool) (api.Event, error) {
	if s.err != nil {
		return api.Event{}, s.err
	}
	for {
		if s.br == nil {
			if err := s.connect(); err != nil {
				if !s.retry(err) {
					s.err = err
					return api.Event{}, err
				}
				continue
			}
		}
		ev, err := s.readEvent(relay)
		if err == nil {
			s.lastID = ev.ID
			s.attempt = 0 // progress: reset the backoff ladder
			if ev.Kind == api.EventJobDone {
				s.sawDone = true
			}
			return ev, nil
		}
		s.disconnect()
		if cerr := s.ctx.Err(); cerr != nil {
			s.err = cerr
			return api.Event{}, cerr
		}
		if s.sawDone || s.finished() {
			// The server ends a stream by closing it after the job's
			// terminal event; a close after job-done (or with the job no
			// longer running, for subscriptions whose filter hid job-done)
			// is the clean end, not a failure.
			s.err = io.EOF
			return api.Event{}, io.EOF
		}
		if !s.retry(err) {
			s.err = err
			return api.Event{}, err
		}
	}
}

// connect opens (or reopens) the SSE request, resuming after lastID.
func (s *Stream) connect() error {
	q := url.Values{}
	if len(s.opts.Kinds) > 0 {
		q.Set("kinds", strings.Join(s.opts.Kinds, ","))
	}
	if s.opts.Cell != nil {
		q.Set("cell", strconv.Itoa(*s.opts.Cell))
	}
	u := s.c.base + "/" + api.Version + "/jobs/" + s.jobID + "/stream"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(s.ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	if s.lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(s.lastID, 10))
	}
	obs.Inject(obs.FromContext(s.ctx), req.Header)
	if rid := obs.RequestIDFrom(s.ctx); rid != "" {
		req.Header.Set(api.HeaderRequestID, rid)
	}
	resp, err := s.c.http.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		apiErr := &APIError{Status: resp.StatusCode, method: http.MethodGet, path: "/" + api.Version + "/jobs/" + s.jobID + "/stream"}
		var body api.Error
		if json.NewDecoder(resp.Body).Decode(&body) == nil {
			apiErr.Code = body.Code
			apiErr.Message = body.Error
		}
		resp.Body.Close()
		return apiErr
	}
	s.resp = resp
	s.br = bufio.NewReader(resp.Body)
	return nil
}

func (s *Stream) disconnect() {
	if s.resp != nil {
		s.resp.Body.Close()
		s.resp = nil
	}
	s.br = nil
}

// readEvent reads one SSE frame and decodes its data (see NextRelay for
// what relay changes).
func (s *Stream) readEvent(relay bool) (api.Event, error) {
	data, err := s.readData()
	if err != nil {
		return api.Event{}, err
	}
	if relay {
		if ev, tail, ok := splitHead(data); ok {
			ev.Tail = bytes.Clone(tail)
			return ev, nil
		}
	}
	var ev api.Event
	if err := json.Unmarshal(data, &ev); err != nil {
		return api.Event{}, fmt.Errorf("client: bad stream frame: %w", err)
	}
	return ev, nil
}

// readData reads one SSE frame (id/event/data lines up to a blank line),
// skipping comment-only frames, and returns its data lines joined by
// newlines. The bytes are the Stream's own and valid until the next read.
func (s *Stream) readData() ([]byte, error) {
	s.data = s.data[:0]
	sawData := false
	for {
		line, err := s.readLine()
		if err != nil {
			return nil, err
		}
		switch {
		case len(line) == 0:
			if sawData {
				return s.data, nil
			}
			// Frame without data (pure comment block).
		case line[0] == ':':
			// Heartbeat comment; nothing to deliver.
		case bytes.HasPrefix(line, []byte("data:")):
			if sawData {
				s.data = append(s.data, '\n')
			}
			s.data = append(s.data, bytes.TrimPrefix(line[len("data:"):], []byte(" "))...)
			sawData = true
		default:
			// id: and event: lines duplicate what the JSON body carries;
			// the body is authoritative.
		}
	}
}

// readLine returns the next line without its line end. It is the bufio
// buffer itself, or for a line longer than that, a copy the Stream keeps;
// either way valid until the next read.
func (s *Stream) readLine() ([]byte, error) {
	line, err := s.br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		s.long = append(s.long[:0], line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			line, err = s.br.ReadSlice('\n')
			s.long = append(s.long, line...)
		}
		line = s.long
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// relayedMembers are the members of api.Event after Technique, in
// declaration order, that a relay forwards as bytes. Done and Total are
// not among them: they count progress on the stream that carried the
// event, so a relay keeps its own.
var relayedMembers = []string{"cached", "replayed", "error", "interval", "episode"}

// splitHead decodes the head of an event's JSON: id, kind, job_id and
// cell, then key, bench and technique where present, all in
// encoding/json's form with strings that need no escapes. It returns the
// rest as the tail if plainTail accepts it. ok is false for a cell-done
// or job-done and for JSON in any other form.
func splitHead(data []byte) (ev api.Event, tail []byte, ok bool) {
	h := head{b: data, ok: true}
	h.lit(`{"id":`)
	ev.ID = h.uint()
	h.lit(`,"kind":`)
	ev.Kind = h.str()
	h.lit(`,"job_id":`)
	ev.JobID = h.str()
	h.lit(`,"cell":`)
	neg := h.opt(`-`)
	if ev.Cell = int(h.uint()); neg {
		ev.Cell = -ev.Cell
	}
	if h.opt(`,"key":`) {
		ev.Key = h.str()
	}
	if h.opt(`,"bench":`) {
		ev.Bench = h.str()
	}
	if h.opt(`,"technique":`) {
		ev.Technique = h.str()
	}
	if !h.ok || ev.Terminal() || !plainTail(h.b) {
		return api.Event{}, nil, false
	}
	return ev, h.b, true
}

// head is splitHead's cursor; ok turns false at the first byte out of
// form and stays false.
type head struct {
	b  []byte
	ok bool
}

// lit consumes s, which must come next.
func (h *head) lit(s string) {
	if !h.opt(s) {
		h.ok = false
	}
}

// opt consumes s if it comes next.
func (h *head) opt(s string) bool {
	if h.ok && bytes.HasPrefix(h.b, []byte(s)) {
		h.b = h.b[len(s):]
		return true
	}
	return false
}

// uint consumes a number of at most 18 digits, which fits any int.
func (h *head) uint() uint64 {
	var n uint64
	i := 0
	for ; i < len(h.b) && h.b[i] >= '0' && h.b[i] <= '9'; i++ {
		n = n*10 + uint64(h.b[i]-'0')
	}
	if i == 0 || i > 18 {
		h.ok = false
	}
	h.b = h.b[i:]
	return n
}

// str consumes a string of printable ASCII other than quote and
// backslash: one whose value is its bytes.
func (h *head) str() string {
	if h.ok && len(h.b) > 0 && h.b[0] == '"' {
		for i := 1; i < len(h.b); i++ {
			switch c := h.b[i]; {
			case c == '"':
				v := string(h.b[1:i])
				h.b = h.b[i+1:]
				return v
			case c < 0x20 || c > 0x7e || c == '\\':
				h.ok = false
				return ""
			}
		}
	}
	h.ok = false
	return ""
}

// plainTail reports whether tail, the rest of an event's JSON from the
// comma before a member (or the closing brace), is in encoding/json's
// form as far as a relay can tell without parsing it: no whitespace
// outside strings, every string closed, brackets balanced and the object
// closed by the last byte, and at the top level only relayedMembers, each
// once and in order. The tokens in between are forwarded unchecked: dvrd
// writes them with encoding/json.
func plainTail(tail []byte) bool {
	if len(tail) == 0 || tail[0] != ',' && tail[0] != '}' {
		return false
	}
	next, depth := 0, 0
	for i := 0; i < len(tail); i++ {
		switch tail[i] {
		case '"':
			j := i + 1
			for ; j < len(tail) && tail[j] != '"'; j++ {
				if tail[j] == '\\' {
					j++
				}
			}
			if j >= len(tail) {
				return false
			}
			if depth == 0 && tail[i-1] == ',' {
				for next < len(relayedMembers) && relayedMembers[next] != string(tail[i+1:j]) {
					next++
				}
				if next == len(relayedMembers) {
					return false
				}
				next++
			}
			i = j
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return tail[i] == '}' && i == len(tail)-1
			}
			depth--
		case ' ', '\t', '\n', '\r':
			return false
		}
	}
	return false
}

// finished asks the job API whether the job is still running — the
// disambiguator between a clean stream end and a mid-job disconnect.
func (s *Stream) finished() bool {
	st, err := s.c.Job(s.ctx, s.jobID)
	return err == nil && st.State != api.JobRunning
}

// retry decides whether to absorb err and sleep the next backoff step,
// under the same attempt cap and wall-clock budget as Client.do. A bare
// EOF mid-stream is a dropped connection with the job still running, so
// it retries like a transport error.
func (s *Stream) retry(err error) bool {
	if !retryable(err) && !errors.Is(err, io.EOF) {
		return false
	}
	if s.attempt+1 >= max(s.c.policy.MaxAttempts, 1) {
		return false
	}
	d := s.c.policy.delay(s.attempt, retryAfterOf(err))
	if s.c.policy.Budget > 0 && s.slept+d > s.c.policy.Budget {
		return false
	}
	s.attempt++
	s.slept += d
	s.c.retries.Add(1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

package client

import (
	"bufio"
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
func (s *Stream) Next() (api.Event, error) {
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
		ev, err := s.readEvent()
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

// readEvent parses one SSE frame (id/event/data lines up to a blank
// line), skipping heartbeat comments.
func (s *Stream) readEvent() (api.Event, error) {
	var data strings.Builder
	sawData := false
	for {
		line, err := s.br.ReadString('\n')
		if err != nil {
			return api.Event{}, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if !sawData {
				continue // frame without data (pure comment block)
			}
			var ev api.Event
			if err := json.Unmarshal([]byte(data.String()), &ev); err != nil {
				return api.Event{}, fmt.Errorf("client: bad stream frame: %w", err)
			}
			return ev, nil
		case strings.HasPrefix(line, ":"):
			// Heartbeat comment; nothing to deliver.
		case strings.HasPrefix(line, "data:"):
			if sawData {
				data.WriteByte('\n')
			}
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
			sawData = true
		default:
			// id: and event: lines duplicate what the JSON body carries;
			// the body is authoritative.
		}
	}
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

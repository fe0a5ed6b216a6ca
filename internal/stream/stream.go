// Package stream is dvrd's fan-out layer: it takes the event feed of one
// simulation job (interval telemetry, runahead episodes, cell lifecycle)
// and broadcasts it to many concurrent subscribers without ever letting a
// subscriber slow the simulation down.
//
// The design is one Broadcaster per job and one Session per subscriber,
// with three explicit policies:
//
//   - Publish never blocks. The publisher (a simulation goroutine via the
//     trace hooks, or the batch runner) takes a mutex, stamps the event
//     with the job's next sequence id, appends it to a bounded replay ring,
//     and enqueues it on every session's bounded buffer. Total work is
//     O(sessions); no channel send can park the simulator behind a stalled
//     TCP connection. This is what preserves the PR 5 bit-identity and
//     zero-alloc-when-disabled guarantees: the simulation cannot observe
//     its observers.
//
//   - Backpressure is drop-oldest, and it is accounted. A session whose
//     reader cannot keep up loses its oldest undelivered telemetry events
//     first (the newest data is the live data a dashboard wants) and
//     counts every loss in a per-session drop counter surfaced at
//     /metrics. cell-done and job-done are never dropped: a follower
//     must be able to tell a finished cell from a lost one.
//
//   - Sessions expire. Every session carries a TTL; a subscriber that
//     stops polling without closing (a wedged proxy, a laptop lid) is
//     reaped by the registry's janitor so its buffer memory comes back.
//
// Event ids are per-job, strictly increasing from 1, and double as the
// SSE resume cursor: a subscriber reconnecting with Last-Event-ID = N is
// replayed the events with id > N still held in the broadcaster's replay
// ring, then continues live.
package stream

import (
	"errors"
	"sync"
	"time"

	"dvr/internal/service/api"
)

// Subscriber-visible terminal conditions of Session.Next.
var (
	// ErrClosed: the broadcaster closed (job finished) and every buffered
	// event has been delivered — the stream's clean end.
	ErrClosed = errors.New("stream: session closed: job stream ended")
	// ErrExpired: the session idled past its TTL (or the registry shut
	// down) and was reaped; whatever was buffered is gone.
	ErrExpired = errors.New("stream: session expired")
)

// Broadcaster fans one job's events out to its sessions. Constructed by
// the Registry; safe for concurrent Publish/Subscribe/Close.
type Broadcaster struct {
	jobID string
	reg   *Registry

	mu       sync.Mutex
	nextID   uint64 // next event id to assign (ids start at 1)
	replay   []api.Event
	repHead  int // index of the oldest replay entry
	repLen   int
	sessions map[*Session]struct{}
	closed   bool
}

func newBroadcaster(jobID string, replayCap int, reg *Registry) *Broadcaster {
	if replayCap < 1 {
		replayCap = 1
	}
	return &Broadcaster{
		jobID:    jobID,
		reg:      reg,
		nextID:   1,
		replay:   make([]api.Event, replayCap),
		sessions: make(map[*Session]struct{}),
	}
}

// JobID names the job this broadcaster belongs to.
func (b *Broadcaster) JobID() string { return b.jobID }

// Publish stamps ev with the job's next event id and fans it out: into
// the replay ring (dropping the oldest retained event when full) and onto
// every attached session's buffer. It never blocks on subscribers and is
// safe to call from simulation goroutines. Returns the assigned id.
// Publishing to a closed broadcaster is a no-op (id 0).
func (b *Broadcaster) Publish(ev api.Event) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0
	}
	ev.ID = b.nextID
	ev.JobID = b.jobID
	b.nextID++
	// Replay ring: overwrite the oldest slot once full.
	tail := (b.repHead + b.repLen) % len(b.replay)
	b.replay[tail] = ev
	if b.repLen < len(b.replay) {
		b.repLen++
	} else {
		b.repHead = (b.repHead + 1) % len(b.replay)
	}
	for s := range b.sessions {
		s.enqueue(ev)
	}
	if b.reg != nil {
		b.reg.published.Add(1)
	}
	return ev.ID
}

// Close marks the job's stream complete: attached sessions drain their
// buffers and then see ErrClosed; future subscribers get the replay window
// and an immediately-ended stream. Idempotent.
func (b *Broadcaster) Close() {
	b.mu.Lock()
	sessions := make([]*Session, 0, len(b.sessions))
	for s := range b.sessions {
		sessions = append(sessions, s)
	}
	b.closed = true
	b.mu.Unlock()
	for _, s := range sessions {
		s.markClosed()
	}
}

// Subscribers reports the number of attached sessions.
func (b *Broadcaster) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.sessions)
}

// SubOptions shape one subscription.
type SubOptions struct {
	// After resumes delivery from event ids greater than this (the SSE
	// Last-Event-ID cursor). 0 means from the oldest retained event.
	After uint64
	// Buffer bounds the session's delivery buffer; 0 means the registry
	// default. When full, the oldest buffered telemetry event is dropped
	// and the session's drop counter incremented; cell-done and job-done
	// events are kept, beyond the bound if need be.
	Buffer int
	// TTL overrides the registry's session TTL; 0 means the default. A
	// session not polled within its TTL is reaped.
	TTL time.Duration
	// Filter, when non-nil, selects which events the session receives;
	// filtered-out events are skipped silently (they are not "drops" —
	// the subscriber asked not to see them).
	Filter func(api.Event) bool
}

// Subscribe attaches a new session: the retained replay events after
// opts.After are enqueued immediately (subject to the filter and buffer
// bound), then live events follow. Subscribing to a closed broadcaster
// still yields the replay, followed by ErrClosed.
func (b *Broadcaster) Subscribe(opts SubOptions) *Session {
	bufCap := opts.Buffer
	ttl := opts.TTL
	var defBuf int
	var defTTL time.Duration
	if b.reg != nil {
		defBuf, defTTL = b.reg.sessionBuffer, b.reg.sessionTTL
	}
	if bufCap <= 0 {
		bufCap = defBuf
	}
	if bufCap <= 0 {
		bufCap = 1024
	}
	if ttl <= 0 {
		ttl = defTTL
	}
	if ttl <= 0 {
		ttl = time.Minute
	}
	s := &Session{
		b:      b,
		buf:    make([]api.Event, bufCap),
		limit:  bufCap,
		ttl:    ttl,
		filter: opts.Filter,
		notify: make(chan struct{}, 1),
	}
	s.lastPoll = time.Now()
	s.opened = s.lastPoll

	b.mu.Lock()
	if b.reg != nil {
		s.id = b.reg.seq.Add(1)
		b.reg.opened.Add(1)
	}
	// Replay before attaching so a concurrent Publish cannot interleave
	// out of order; both paths run under b.mu.
	for i := 0; i < b.repLen; i++ {
		ev := b.replay[(b.repHead+i)%len(b.replay)]
		if ev.ID > opts.After {
			s.enqueue(ev)
		}
	}
	closed := b.closed
	b.sessions[s] = struct{}{}
	b.mu.Unlock()
	if closed {
		s.markClosed()
	}
	return s
}

func (b *Broadcaster) drop(s *Session) {
	b.mu.Lock()
	delete(b.sessions, s)
	b.mu.Unlock()
}

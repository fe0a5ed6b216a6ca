// Package stream is dvrd's fan-out layer: it takes the event feed of one
// simulation job (interval telemetry, runahead episodes, cell lifecycle)
// and serves it to many concurrent subscribers without ever letting a
// subscriber slow the simulation down.
//
// Each job has one Broadcaster holding the job's one event log; each
// subscriber's Session is a cursor into it (last id read, filter,
// delivered/dropped counters) and buffers no events. Three policies:
//
//   - Publish never blocks: it takes a mutex, stamps the job's next id,
//     appends to the log and kicks the sessions, so a stalled TCP
//     connection cannot park the simulator that publishes.
//
//   - Lag is bounded, telemetry goes first, and loss is accounted. The
//     log keeps the newest Config.ReplayEntries telemetry events in a
//     ring and every cell-done and job-done beside it, so a follower can
//     tell a finished cell from a lost one. A session is owed at most
//     ReplayEntries unread events; past that it loses its oldest unread
//     telemetry, never a terminal event, and counts a drop if the event
//     was published after it attached. A reader that keeps up never
//     loses an event.
//
//   - Telemetry may wait, terminal events may not. A session has two
//     wakes: every publish kicks one (Next), and only a cell-done, a
//     job-done or the end of the stream kicks the other (Linger), so a
//     writer batching telemetry sleeps through it and still sends a
//     terminal event the moment it is published.
//
//   - Reading is resuming. Ids are per-job, strictly increasing from 1,
//     and double as the SSE resume cursor: live reads and Last-Event-ID
//     resumes both read the retained events past the cursor, so the lag
//     bound and the resume window are the same number.
//
// A session owns only its counters, so nothing reaps it: it lives until
// its consumer closes it.
package stream

import (
	"errors"
	"sort"
	"sync"
	"time"

	"dvr/internal/service/api"
)

// ErrClosed is Session.Next's clean end: the broadcaster closed (job
// finished) and every retained event past the cursor has been read, or
// the session itself was closed.
var ErrClosed = errors.New("stream: session closed: job stream ended")

// Broadcaster holds one job's event log and its sessions. Constructed by
// the Registry; safe for concurrent Publish/Subscribe/Close.
type Broadcaster struct {
	jobID string
	reg   *Registry
	limit int // telemetry the log keeps; events a session may be owed

	mu       sync.Mutex
	nextID   uint64      // next event id to assign (ids start at 1)
	tele     []api.Event // ring of the newest telemetry, ids increasing from head
	head     int         // index of the oldest retained telemetry
	done     []api.Event // every cell-done and job-done, in id order
	sessions []*Session
	closed   bool
}

// at returns the i-th oldest retained telemetry event. Called with b.mu
// held.
func (b *Broadcaster) at(i int) *api.Event { return &b.tele[(b.head+i)%len(b.tele)] }

// search returns the index of the oldest retained telemetry event with an
// id past id (len(b.tele) if none). Called with b.mu held.
func (b *Broadcaster) search(id uint64) int {
	return sort.Search(len(b.tele), func(i int) bool { return b.at(i).ID > id })
}

// after returns the oldest retained event with an id past id, telemetry
// or terminal, or nil. Called with b.mu held.
func (b *Broadcaster) after(id uint64) *api.Event {
	var next *api.Event
	if i := b.search(id); i < len(b.tele) {
		next = b.at(i)
	}
	j := sort.Search(len(b.done), func(j int) bool { return b.done[j].ID > id })
	if j < len(b.done) && (next == nil || b.done[j].ID < next.ID) {
		next = &b.done[j]
	}
	return next
}

// Publish stamps ev with the job's next event id, appends it to the log
// and wakes every session, holding each to its bound. It never blocks on
// subscribers and is safe to call from simulation goroutines. Returns the
// assigned id. Publishing to a closed broadcaster is a no-op (id 0).
func (b *Broadcaster) Publish(ev api.Event) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0
	}
	ev.ID = b.nextID
	ev.JobID = b.jobID
	b.nextID++
	b.reg.published.Add(1)
	if ev.Terminal() {
		b.done = append(b.done, ev)
	} else {
		b.push(ev)
	}
	for _, s := range b.sessions {
		if s.owes(&ev) {
			s.owed++
			if ev.Terminal() {
				kick(s.wake)
			}
		}
		s.trim()
		kick(s.notify)
	}
	return ev.ID
}

// push appends a telemetry event to the ring: it grows on demand up to
// the bound (head stays 0 until then), and once full overwrites its oldest
// event, which is lost to every session still owed it.
func (b *Broadcaster) push(ev api.Event) {
	if len(b.tele) < b.limit {
		b.tele = append(b.tele, ev)
		return
	}
	old := b.at(0)
	for _, s := range b.sessions {
		if s.owes(old) {
			s.lose(old)
		}
	}
	*old = ev
	b.head = (b.head + 1) % len(b.tele)
}

// Close marks the job's stream complete: sessions read what is left past
// their cursors and then see ErrClosed; future subscribers get the
// retained log and an immediately-ended stream. Idempotent.
func (b *Broadcaster) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	for _, s := range b.sessions {
		kick(s.notify)
		kick(s.wake)
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
	// After is the session's starting cursor: it reads the retained events
	// with ids greater than this (the SSE Last-Event-ID). 0 means from the
	// oldest retained event.
	After uint64
	// Filter, when non-nil, selects which events the session receives;
	// filtered-out events are skipped silently (they are not "drops" —
	// the subscriber asked not to see them).
	Filter func(api.Event) bool
}

// Subscribe attaches a new session whose cursor starts at opts.After: it
// reads the retained events past it (at most the bound's worth, oldest
// telemetry trimmed first, none of it a drop), then live events.
// Subscribing to a closed broadcaster still yields the retained events,
// followed by ErrClosed.
func (b *Broadcaster) Subscribe(opts SubOptions) *Session {
	s := &Session{
		b:      b,
		cursor: opts.After,
		filter: opts.Filter,
		notify: make(chan struct{}, 1),
		wake:   make(chan struct{}, 1),
		opened: time.Now(),
		id:     b.reg.seq.Add(1),
	}
	b.reg.opened.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	s.from = b.nextID
	for ev := b.after(s.cursor); ev != nil; ev = b.after(ev.ID) {
		if s.wants(ev) {
			s.owed++
		}
	}
	s.trim()
	b.sessions = append(b.sessions, s)
	return s
}

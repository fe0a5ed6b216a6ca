package stream

import (
	"context"
	"slices"
	"sort"
	"time"

	"dvr/internal/service/api"
)

// Session is one subscriber's cursor into a job's event log, with its
// filter and its delivery/drop accounting; it holds no events. One
// goroutine consumes a session (Next); its fields are guarded by the
// broadcaster's mutex.
type Session struct {
	b      *Broadcaster
	id     uint64
	opened time.Time
	filter func(api.Event) bool
	notify chan struct{} // cap 1; kicked on publish and close
	wake   chan struct{} // cap 1; kicked on an owed terminal event and close

	cursor    uint64 // id of the last event read (or skipped by the filter)
	floor     uint64 // telemetry with an id up to this is lost to the session
	from      uint64 // first event id published after the session attached
	owed      int    // retained events past the cursor it wants and has not lost
	dropped   uint64 // events lost before this session read them
	delivered uint64 // events handed to the consumer
	closed    bool   // Close was called
}

func (s *Session) wants(ev *api.Event) bool { return s.filter == nil || s.filter(*ev) }

// owes reports whether s has yet to read ev: past its cursor, not lost to
// its bound, and wanted.
func (s *Session) owes(ev *api.Event) bool {
	return ev.ID > s.cursor && (ev.Terminal() || ev.ID > s.floor) && s.wants(ev)
}

// lose accounts the telemetry event ev, which s was owed, as never to be
// read; only an event published after s attached is its drop.
func (s *Session) lose(ev *api.Event) {
	s.owed--
	if ev.ID >= s.from {
		s.dropped++
		s.b.reg.droppedTotal.Add(1)
	}
}

// trim holds s to the log's bound: while it is owed more than that many
// events, its oldest owed telemetry is lost to it. When all it is owed is
// terminal, it stays owed past the bound. Called with the broadcaster's
// mutex held.
func (s *Session) trim() {
	b := s.b
	for s.owed > b.limit {
		i := b.search(max(s.cursor, s.floor))
		for ; i < len(b.tele) && !s.wants(b.at(i)); i++ {
			s.floor = b.at(i).ID // unwanted: never owed, skip it for good
		}
		if i == len(b.tele) {
			return
		}
		s.floor = b.at(i).ID
		s.lose(b.at(i))
	}
}

// kick leaves a token in a wake channel unless one is already there.
func kick(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// Next returns the oldest retained event past the cursor, blocking until
// one arrives, the stream ends (ErrClosed), or ctx is done.
func (s *Session) Next(ctx context.Context) (api.Event, error) {
	for {
		ev, ok, err := s.TryNext()
		if ok || err != nil {
			return ev, err
		}
		select {
		case <-ctx.Done():
			return api.Event{}, ctx.Err()
		case <-s.notify:
		}
	}
}

// TryNext is Next without the wait: ok is false, with a nil error, when
// nothing past the cursor is retained and the stream is still open. A
// consumer that batches its output drains with TryNext and does its flush
// before it blocks in Next.
func (s *Session) TryNext() (ev api.Event, ok bool, err error) {
	b := s.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.closed {
		return api.Event{}, false, ErrClosed
	}
	for at := b.after(s.cursor); at != nil; at = b.after(s.cursor) {
		owed := s.owes(at)
		s.cursor = at.ID
		if owed {
			s.owed--
			s.delivered++
			return *at, true, nil
		}
	}
	if b.closed {
		return api.Event{}, false, ErrClosed
	}
	return api.Event{}, false, nil
}

// Linger waits up to d for a reason not to: it returns early when the
// session is owed a cell-done or job-done, or when the session, its
// stream or ctx ends. Telemetry published meanwhile does not end it. A
// writer that has telemetry to send lingers before it flushes, so events
// published close together leave in one burst while a terminal event
// never waits.
func (s *Session) Linger(ctx context.Context, d time.Duration) {
	// A token left from a terminal event already read is stale; one that
	// arrives after urgent looked is not.
	select {
	case <-s.wake:
	default:
	}
	if s.urgent() {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-s.wake:
	case <-t.C:
	}
}

// urgent reports whether s is owed a terminal event or has ended, so
// that a writer must not wait.
func (s *Session) urgent() bool {
	b := s.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.closed || b.closed {
		return true
	}
	for j := sort.Search(len(b.done), func(j int) bool { return b.done[j].ID > s.cursor }); j < len(b.done); j++ {
		if s.wants(&b.done[j]) {
			return true
		}
	}
	return false
}

// Dropped reports how many events this session lost to the log's
// drop-oldest policy so far.
func (s *Session) Dropped() uint64 {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	return s.dropped
}

// Delivered reports how many events this session has handed its consumer.
func (s *Session) Delivered() uint64 {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	return s.delivered
}

// Close detaches the session from its broadcaster and wakes a consumer
// blocked in Next, which then returns ErrClosed. Idempotent; safe
// concurrently with publishes.
func (s *Session) Close() {
	s.b.mu.Lock()
	if i := slices.Index(s.b.sessions, s); i >= 0 {
		s.b.sessions = slices.Delete(s.b.sessions, i, i+1)
	}
	s.closed = true
	s.b.mu.Unlock()
	kick(s.notify)
	kick(s.wake)
}

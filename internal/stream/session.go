package stream

import (
	"context"
	"sync"
	"time"

	"dvr/internal/service/api"
)

// Session is one subscriber's view of a job stream: a bounded ring of
// undelivered events with an explicit drop-oldest-telemetry overflow policy
// (cell-done and job-done are never dropped), a TTL, and per-session
// delivery/drop accounting. One goroutine consumes a
// session (Next); any number may publish into it through the broadcaster.
type Session struct {
	b   *Broadcaster
	id  uint64
	ttl time.Duration

	mu        sync.Mutex
	buf       []api.Event // delivery ring; longer than limit only while it holds terminal events alone
	limit     int         // events the ring holds before it evicts telemetry
	head      int         // index of the oldest buffered event
	n         int         // buffered count
	dropped   uint64      // events lost to the overflow policy
	delivered uint64      // events handed to the consumer
	lastID    uint64      // highest event id enqueued (gap detection)
	closed    bool        // broadcaster finished; drain then ErrClosed
	expired   bool        // reaped; ErrExpired immediately
	lastPoll  time.Time   // last Next or TryNext call (TTL clock)
	opened    time.Time

	filter func(api.Event) bool
	notify chan struct{} // cap 1; kicked on enqueue/close/expire
}

// terminal reports whether ev is one a consumer cannot do without: it
// tells a finished cell or the finished job apart from a lost one.
func terminal(ev api.Event) bool {
	return ev.Kind == api.EventCellDone || ev.Kind == api.EventJobDone
}

// enqueue appends ev to the delivery ring. When the ring is full it evicts
// the oldest buffered telemetry event (counted in dropped), never a
// terminal one: a ring holding nothing else grows for a terminal event, so
// it may exceed its limit by the job's cells + 1, and drops an incoming
// telemetry event. Called with b.mu held, so the per-session order matches
// publish order exactly.
func (s *Session) enqueue(ev api.Event) {
	if s.filter != nil && !s.filter(ev) {
		return
	}
	s.mu.Lock()
	if s.closed || s.expired {
		s.mu.Unlock()
		return
	}
	s.lastID = ev.ID
	if s.n >= s.limit {
		// Drop-oldest: the freshest events are the valuable ones for a
		// live view, and the replay window covers re-reading history.
		switch {
		case s.evict():
		case !terminal(ev):
			s.countDrop()
			s.mu.Unlock()
			return
		case s.n == len(s.buf):
			grown := make([]api.Event, 2*len(s.buf))
			for i := range s.buf {
				grown[i] = s.buf[(s.head+i)%len(s.buf)]
			}
			s.buf, s.head = grown, 0
		}
	}
	s.buf[(s.head+s.n)%len(s.buf)] = ev
	s.n++
	s.mu.Unlock()
	s.kick()
}

// evict removes the oldest buffered event that is not terminal, moving the
// terminal ones ahead of it (at most the job's cells + 1) one slot back.
// It reports false when every buffered event is terminal.
func (s *Session) evict() bool {
	at := func(i int) *api.Event { return &s.buf[(s.head+i)%len(s.buf)] }
	k := 0
	for k < s.n && terminal(*at(k)) {
		k++
	}
	if k == s.n {
		return false
	}
	for ; k > 0; k-- {
		*at(k) = *at(k - 1)
	}
	*at(0) = api.Event{}
	s.head = (s.head + 1) % len(s.buf)
	s.n--
	s.countDrop()
	return true
}

func (s *Session) countDrop() {
	s.dropped++
	if s.b != nil && s.b.reg != nil {
		s.b.reg.droppedTotal.Add(1)
	}
}

func (s *Session) kick() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next returns the oldest undelivered event, blocking until one arrives,
// the stream ends (ErrClosed), the session is reaped (ErrExpired), or ctx
// is done. It is the TTL heartbeat: each call refreshes the session's
// idle clock.
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
// nothing is buffered and the stream is still open. A consumer that
// batches its output drains with TryNext and does its flush before it
// blocks in Next. It refreshes the idle clock as Next does.
func (s *Session) TryNext() (ev api.Event, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastPoll = time.Now()
	switch {
	case s.n > 0:
		ev = s.buf[s.head]
		s.buf[s.head] = api.Event{} // release references
		s.head = (s.head + 1) % len(s.buf)
		s.n--
		s.delivered++
		return ev, true, nil
	case s.expired:
		return api.Event{}, false, ErrExpired
	case s.closed:
		return api.Event{}, false, ErrClosed
	}
	return api.Event{}, false, nil
}

// Dropped reports how many events this session lost to the drop-oldest
// policy so far.
func (s *Session) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Delivered reports how many events this session has handed its consumer.
func (s *Session) Delivered() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delivered
}

// LastEventID reports the highest event id enqueued into this session —
// the consumer's resume cursor after a drop gap.
func (s *Session) LastEventID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastID
}

// Close detaches the session from its broadcaster and releases its
// buffer. Idempotent; safe concurrently with publishes.
func (s *Session) Close() {
	if s.b != nil {
		s.b.drop(s)
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.kick()
}

// markClosed flags the end of the stream without discarding buffered
// events: the consumer drains what is left, then gets ErrClosed.
func (s *Session) markClosed() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.kick()
}

// expire reaps an idle session: detach, mark, and wake the consumer (if
// one is still blocked, it gets ErrExpired).
func (s *Session) expire() {
	if s.b != nil {
		s.b.drop(s)
	}
	s.mu.Lock()
	s.expired = true
	s.mu.Unlock()
	s.kick()
}

// idleSince reports the last poll time (janitor use).
func (s *Session) idleSince() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastPoll
}

package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dvr/internal/service/api"
)

func testRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	r := NewRegistry(cfg)
	t.Cleanup(r.Close)
	return r
}

func drain(t *testing.T, s *Session, timeout time.Duration) []api.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var out []api.Event
	for {
		ev, err := s.Next(ctx)
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return out
			}
			t.Fatalf("Next: %v (got %d events)", err, len(out))
		}
		out = append(out, ev)
	}
}

// TestPublishSubscribeOrder: a subscriber sees every event, in publish
// order, with strictly increasing per-job ids starting at 1.
func TestPublishSubscribeOrder(t *testing.T) {
	r := testRegistry(t, Config{})
	b := r.Create("job-1")
	s := b.Subscribe(SubOptions{})
	defer s.Close()
	for i := 0; i < 50; i++ {
		b.Publish(api.Event{Kind: api.EventInterval, Cell: i})
	}
	b.Close()
	evs := drain(t, s, 5*time.Second)
	if len(evs) != 50 {
		t.Fatalf("got %d events, want 50", len(evs))
	}
	for i, ev := range evs {
		if ev.ID != uint64(i+1) || ev.Cell != i || ev.JobID != "job-1" {
			t.Fatalf("event %d out of order or mislabeled: %+v", i, ev)
		}
	}
	if got := s.Dropped(); got != 0 {
		t.Errorf("dropped %d events with a fast subscriber", got)
	}
}

// TestSlowSubscriberDropsOldest is the backpressure contract: a stalled
// subscriber with a bounded buffer loses its OLDEST undelivered events,
// the loss is counted, and delivery resumes with the newest data.
func TestSlowSubscriberDropsOldest(t *testing.T) {
	r := testRegistry(t, Config{SessionBuffer: 4})
	b := r.Create("job-1")
	s := b.Subscribe(SubOptions{}) // stalled: no Next until the end
	defer s.Close()
	for i := 0; i < 100; i++ {
		b.Publish(api.Event{Kind: api.EventInterval, Cell: i})
	}
	b.Close()
	evs := drain(t, s, 5*time.Second)
	if len(evs) != 4 {
		t.Fatalf("got %d events, want buffer cap 4", len(evs))
	}
	// The survivors are the newest four, in order.
	for i, ev := range evs {
		if want := 96 + i; ev.Cell != want {
			t.Errorf("survivor %d is event %d, want %d (drop-oldest violated)", i, ev.Cell, want)
		}
	}
	if got := s.Dropped(); got != 96 {
		t.Errorf("Dropped() = %d, want 96", got)
	}
	m := r.Snapshot()
	if m.EventsDropped != 96 {
		t.Errorf("registry EventsDropped = %d, want 96", m.EventsDropped)
	}
	if m.EventsPublished != 100 {
		t.Errorf("registry EventsPublished = %d, want 100", m.EventsPublished)
	}
}

// TestReplayResume: a late subscriber with Last-Event-ID = N receives
// exactly the retained events with id > N — the SSE reconnect contract.
func TestReplayResume(t *testing.T) {
	r := testRegistry(t, Config{ReplayEntries: 8})
	b := r.Create("job-1")
	for i := 0; i < 20; i++ {
		b.Publish(api.Event{Kind: api.EventInterval, Cell: i})
	}
	// Replay ring holds ids 13..20. A resume from 15 gets 16..20.
	s := b.Subscribe(SubOptions{After: 15})
	defer s.Close()
	b.Close()
	evs := drain(t, s, 5*time.Second)
	if len(evs) != 5 {
		t.Fatalf("got %d replayed events, want 5", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(16 + i); ev.ID != want {
			t.Errorf("replay %d: id %d, want %d", i, ev.ID, want)
		}
	}
	// A resume from before the window start gets the whole window.
	s2 := b.Subscribe(SubOptions{After: 3})
	defer s2.Close()
	evs2 := drain(t, s2, 5*time.Second)
	if len(evs2) != 8 || evs2[0].ID != 13 {
		t.Fatalf("aged-out resume: got %d events starting at id %d, want 8 starting at 13",
			len(evs2), evs2[0].ID)
	}
}

// TestFilteredSubscription: kind/cell filters skip events silently — they
// are not drops.
func TestFilteredSubscription(t *testing.T) {
	r := testRegistry(t, Config{})
	b := r.Create("job-1")
	s := b.Subscribe(SubOptions{Filter: func(ev api.Event) bool { return ev.Cell == 1 || ev.Cell < 0 }})
	defer s.Close()
	for i := 0; i < 9; i++ {
		b.Publish(api.Event{Kind: api.EventInterval, Cell: i % 3})
	}
	b.Publish(api.Event{Kind: api.EventJobDone, Cell: -1})
	b.Close()
	evs := drain(t, s, 5*time.Second)
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 3 cell-1 + 1 job-done", len(evs))
	}
	if s.Dropped() != 0 {
		t.Errorf("filtered events counted as drops: %d", s.Dropped())
	}
}

// TestManySubscriberFanOut: N concurrent subscribers each receive the
// full stream in order while publishers run concurrently — the race
// detector is the real assertion here.
func TestManySubscriberFanOut(t *testing.T) {
	const subs, events = 16, 200
	r := testRegistry(t, Config{SessionBuffer: events + 8})
	b := r.Create("job-1")
	var wg sync.WaitGroup
	got := make([][]api.Event, subs)
	for i := 0; i < subs; i++ {
		s := b.Subscribe(SubOptions{})
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			defer s.Close()
			got[i] = drain(t, s, 10*time.Second)
		}(i, s)
	}
	// Two concurrent publishers (as two batch cells would be).
	var pub sync.WaitGroup
	for p := 0; p < 2; p++ {
		pub.Add(1)
		go func(p int) {
			defer pub.Done()
			for i := 0; i < events/2; i++ {
				b.Publish(api.Event{Kind: api.EventInterval, Cell: p})
			}
		}(p)
	}
	pub.Wait()
	b.Close()
	wg.Wait()
	for i := 0; i < subs; i++ {
		if len(got[i]) != events {
			t.Fatalf("subscriber %d got %d events, want %d", i, len(got[i]), events)
		}
		for j, ev := range got[i] {
			if ev.ID != uint64(j+1) {
				t.Fatalf("subscriber %d event %d has id %d (order broken)", i, j, ev.ID)
			}
		}
		if fmt.Sprintf("%v", got[i]) != fmt.Sprintf("%v", got[0]) {
			t.Fatalf("subscriber %d saw a different stream than subscriber 0", i)
		}
	}
}

// TestSessionTTLReap: a session that stops polling is expired by the
// janitor, its consumer unblocked with ErrExpired, and the reap counted.
func TestSessionTTLReap(t *testing.T) {
	r := testRegistry(t, Config{SessionTTL: 50 * time.Millisecond})
	b := r.Create("job-1")
	s := b.Subscribe(SubOptions{})
	deadline := time.Now().Add(5 * time.Second)
	for b.Subscribers() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("session not reaped within 5s of a 50ms TTL")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := s.Next(context.Background()); !errors.Is(err, ErrExpired) {
		t.Fatalf("Next after reap: %v, want ErrExpired", err)
	}
	if m := r.Snapshot(); m.SessionsExpired != 1 || m.SessionsActive != 0 {
		t.Errorf("snapshot after reap: %+v", m)
	}
}

// TestSubscribeAfterClose: a subscriber arriving after the job finished
// still gets the replay window, then a clean end.
func TestSubscribeAfterClose(t *testing.T) {
	r := testRegistry(t, Config{})
	b := r.Create("job-1")
	b.Publish(api.Event{Kind: api.EventCellDone, Cell: 0})
	b.Publish(api.Event{Kind: api.EventJobDone, Cell: -1})
	b.Close()
	s := b.Subscribe(SubOptions{})
	defer s.Close()
	evs := drain(t, s, 5*time.Second)
	if len(evs) != 2 || evs[1].Kind != api.EventJobDone {
		t.Fatalf("late subscriber got %+v", evs)
	}
}

// TestPublishAfterCloseIsNoop: the job cannot grow its stream after the
// terminal event.
func TestPublishAfterCloseIsNoop(t *testing.T) {
	r := testRegistry(t, Config{})
	b := r.Create("job-1")
	b.Close()
	if id := b.Publish(api.Event{Kind: api.EventInterval}); id != 0 {
		t.Errorf("publish after close assigned id %d", id)
	}
}

// TestNextHonorsContext: a blocked Next returns when its context ends
// (the SSE handler's heartbeat path).
func TestNextHonorsContext(t *testing.T) {
	r := testRegistry(t, Config{})
	b := r.Create("job-1")
	s := b.Subscribe(SubOptions{})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next: %v, want DeadlineExceeded", err)
	}
}

// TestStreamBurstDrainsWithTryNext: TryNext hands over what is queued, in
// order, and says "nothing yet" without blocking on an open stream; once
// the stream is closed and drained it reports the clean end. Polling with
// it alone keeps the session alive, as polling with Next does.
func TestStreamBurstDrainsWithTryNext(t *testing.T) {
	r := testRegistry(t, Config{SessionTTL: 100 * time.Millisecond})
	b := r.Create("job-1")
	s := b.Subscribe(SubOptions{})
	defer s.Close()
	if ev, ok, err := s.TryNext(); ok || err != nil {
		t.Fatalf("TryNext on an empty open stream = (%+v, %v, %v), want nothing and no error", ev, ok, err)
	}
	const burst = 5
	for i := 0; i < burst; i++ {
		b.Publish(api.Event{Kind: api.EventInterval, Cell: i})
	}
	for i := 0; i < burst; i++ {
		ev, ok, err := s.TryNext()
		if !ok || err != nil || ev.ID != uint64(i+1) || ev.Cell != i {
			t.Fatalf("TryNext %d = (id %d cell %d, %v, %v), want id %d", i, ev.ID, ev.Cell, ok, err, i+1)
		}
	}
	if got := s.Delivered(); got != burst {
		t.Errorf("Delivered() = %d, want %d", got, burst)
	}
	// Three TTLs of TryNext polls: the janitor must not reap the session.
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		if _, ok, err := s.TryNext(); ok || err != nil {
			t.Fatalf("TryNext while idle = (%v, %v); the session was reaped or grew an event", ok, err)
		}
	}
	b.Publish(api.Event{Kind: api.EventJobDone, Cell: -1})
	b.Close()
	if ev, ok, err := s.TryNext(); !ok || err != nil || ev.Kind != api.EventJobDone {
		t.Fatalf("TryNext after close = (%q, %v, %v), want the buffered job-done first", ev.Kind, ok, err)
	}
	if _, ok, err := s.TryNext(); ok || !errors.Is(err, ErrClosed) {
		t.Fatalf("TryNext on a drained closed stream = (%v, %v), want ErrClosed", ok, err)
	}
}

// TestFullRingKeepsTerminalEvents: a stalled subscriber whose ring is full
// of interval telemetry still receives every cell-done and the job-done
// published after it, in publish order; what the ring evicts to make room
// is telemetry, and it is counted.
func TestFullRingKeepsTerminalEvents(t *testing.T) {
	const ringCap, cells = 8, 12 // more terminal events than the ring holds
	r := testRegistry(t, Config{SessionBuffer: ringCap})
	b := r.Create("job-1")
	s := b.Subscribe(SubOptions{}) // stalled: no Next until the end
	defer s.Close()
	for i := 0; i < 3*ringCap; i++ {
		b.Publish(api.Event{Kind: api.EventInterval, Cell: i})
	}
	published := 3 * ringCap
	for c := 0; c < cells; c++ {
		// Telemetry keeps arriving between the terminal events.
		b.Publish(api.Event{Kind: api.EventRunahead, Cell: c})
		b.Publish(api.Event{Kind: api.EventCellDone, Cell: c})
		published += 2
	}
	b.Publish(api.Event{Kind: api.EventJobDone})
	published++
	b.Close()

	evs := drain(t, s, 5*time.Second)
	var done []int
	for i, ev := range evs {
		if i > 0 && ev.ID <= evs[i-1].ID {
			t.Fatalf("event %d (id %d) delivered after id %d", i, ev.ID, evs[i-1].ID)
		}
		if ev.Kind == api.EventCellDone {
			done = append(done, ev.Cell)
		}
	}
	if len(done) != cells {
		t.Fatalf("%d of %d cell-done events delivered: %v", len(done), cells, done)
	}
	for c, got := range done {
		if got != c {
			t.Fatalf("cell-done events out of order: %v", done)
		}
	}
	if last := evs[len(evs)-1]; last.Kind != api.EventJobDone {
		t.Errorf("last event is %q, want job-done", last.Kind)
	}
	// More terminal events than the ring's cap: it grew for them alone,
	// and every telemetry event made way.
	if len(evs) != cells+1 {
		t.Errorf("%d events delivered, want the %d terminal ones and no telemetry", len(evs), cells+1)
	}
	if got, want := s.Dropped(), uint64(published-len(evs)); got != want {
		t.Errorf("Dropped() = %d, want %d (published %d, delivered %d)", got, want, published, len(evs))
	}
	if m := r.Snapshot(); m.EventsDropped != s.Dropped() {
		t.Errorf("registry EventsDropped = %d, session dropped %d", m.EventsDropped, s.Dropped())
	}
}

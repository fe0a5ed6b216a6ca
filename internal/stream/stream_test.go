package stream

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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
	r := testRegistry(t, Config{ReplayEntries: 4})
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
	r := testRegistry(t, Config{ReplayEntries: events + 8})
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
// the stream is closed and drained it reports the clean end.
func TestStreamBurstDrainsWithTryNext(t *testing.T) {
	r := testRegistry(t, Config{})
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
	r := testRegistry(t, Config{ReplayEntries: ringCap})
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

// TestLiveReaderOutlastsTerminalBound: a reader that keeps up loses
// nothing, however many cells the job finishes past the log's bound,
// while a stalled session on the same job loses only its own telemetry.
func TestLiveReaderOutlastsTerminalBound(t *testing.T) {
	const logCap, cells = 8, 12 // more terminal events than the bound
	r := testRegistry(t, Config{ReplayEntries: logCap})
	b := r.Create("job-1")
	stalled := b.Subscribe(SubOptions{})
	defer stalled.Close()
	live := b.Subscribe(SubOptions{})
	defer live.Close()
	var got []api.Event
	for c := 0; c < cells; c++ {
		b.Publish(api.Event{Kind: api.EventRunahead, Cell: c})
		b.Publish(api.Event{Kind: api.EventCellDone, Cell: c})
		for {
			ev, ok, err := live.TryNext()
			if err != nil {
				t.Fatalf("TryNext: %v", err)
			}
			if !ok {
				break
			}
			got = append(got, ev)
		}
	}
	if len(got) != 2*cells {
		t.Fatalf("live reader got %d events, want %d", len(got), 2*cells)
	}
	for i, ev := range got {
		if ev.ID != uint64(i+1) || ev.Cell != i/2 {
			t.Fatalf("event %d out of order: %+v", i, ev)
		}
	}
	if d := live.Dropped(); d != 0 {
		t.Errorf("live reader Dropped() = %d, want 0", d)
	}
	if d := stalled.Dropped(); d == 0 {
		t.Error("stalled session lost nothing past its bound")
	}
}

// TestLateSubscriberKeepsTerminalEvents: the job's log evicts telemetry,
// never a cell-done or job-done, so a subscriber that attaches after the
// job finished still reads every cell's end and the job's, in order. The
// evictions happened before it attached: they are not its drops.
func TestLateSubscriberKeepsTerminalEvents(t *testing.T) {
	const logCap, cells = 8, 12 // more terminal events than the log holds
	r := testRegistry(t, Config{ReplayEntries: logCap})
	b := r.Create("job-1")
	for i := 0; i < 3*logCap; i++ {
		b.Publish(api.Event{Kind: api.EventInterval, Cell: i})
	}
	for c := 0; c < cells; c++ {
		b.Publish(api.Event{Kind: api.EventRunahead, Cell: c})
		b.Publish(api.Event{Kind: api.EventCellDone, Cell: c})
	}
	b.Publish(api.Event{Kind: api.EventJobDone, Cell: -1})
	b.Close()

	s := b.Subscribe(SubOptions{After: 0})
	defer s.Close()
	evs := drain(t, s, 5*time.Second)
	if len(evs) != cells+1 {
		t.Fatalf("late subscriber got %d events, want the %d terminal ones: %+v", len(evs), cells+1, evs)
	}
	for c, ev := range evs[:cells] {
		if ev.Kind != api.EventCellDone || ev.Cell != c {
			t.Fatalf("event %d is %q for cell %d, want cell-done for cell %d", c, ev.Kind, ev.Cell, c)
		}
	}
	if last := evs[cells]; last.Kind != api.EventJobDone {
		t.Errorf("last event is %q, want job-done", last.Kind)
	}
	if got := s.Dropped(); got != 0 {
		t.Errorf("Dropped() = %d, want 0: evictions before the session attached are history, not drops", got)
	}
}

// TestCloseWakesNext: closing a session wakes the consumer blocked in
// Next, which returns ErrClosed.
func TestCloseWakesNext(t *testing.T) {
	r := testRegistry(t, Config{})
	s := r.Create("job-1").Subscribe(SubOptions{})
	errc := make(chan error, 1)
	go func() {
		_, err := s.Next(context.Background())
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let Next block
	s.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Next after Close: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake a blocked Next")
	}
}

// TestRandomInterleavingKeepsBound: under random publishes, reads and
// subscriptions (filtered or not, resuming anywhere, even past the newest
// id), each session's owed count matches the retained events it has yet
// to read, it exceeds the bound only when all of them are terminal, and
// every session reads ids in increasing order.
func TestRandomInterleavingKeepsBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		lim := 1 + rng.Intn(10)
		r := NewRegistry(Config{ReplayEntries: lim})
		b := r.Create("j")
		var ss []*Session
		var got [][]uint64
		kinds := []string{api.EventInterval, api.EventRunahead, api.EventCellDone}
		for step := 0; step < 300; step++ {
			switch x := rng.Intn(10); {
			case x < 5:
				k := kinds[rng.Intn(3)]
				b.Publish(api.Event{Kind: k, Cell: rng.Intn(3)})
			case x < 8 && len(ss) > 0:
				i := rng.Intn(len(ss))
				if ev, ok, _ := ss[i].TryNext(); ok {
					got[i] = append(got[i], ev.ID)
				}
			case x == 8 && len(ss) < 4:
				var f func(api.Event) bool
				if rng.Intn(2) == 0 {
					c := rng.Intn(3)
					f = func(e api.Event) bool { return e.Cell == c }
				}
				ss = append(ss, b.Subscribe(SubOptions{After: uint64(rng.Intn(int(b.nextID) + 3)), Filter: f}))
				got = append(got, nil)
			}
			b.mu.Lock()
			for _, s := range ss {
				n, tele := 0, 0
				for ev := b.after(s.cursor); ev != nil; ev = b.after(ev.ID) {
					if s.owes(ev) {
						n++
						if !ev.Terminal() {
							tele++
						}
					}
				}
				if n != s.owed {
					t.Fatalf("trial %d step %d: owed %d, brute %d", trial, step, s.owed, n)
				}
				if n > lim && tele > 0 {
					t.Fatalf("trial %d step %d: owed %d > lim %d with %d telemetry", trial, step, n, lim, tele)
				}
			}
			b.mu.Unlock()
		}
		for i := range got {
			for j := 1; j < len(got[i]); j++ {
				if got[i][j] <= got[i][j-1] {
					t.Fatalf("trial %d session %d read id %d after %d", trial, i, got[i][j], got[i][j-1])
				}
			}
		}
		r.Close()
	}
}

// TestLingerEndsOnlyForTerminalEvents: Linger sleeps through telemetry
// published during it. A cell-done or job-done the session is owed ends
// it at once, whether published during it or already waiting unread, and
// the events before it are read first. So do the close of the session,
// of its stream, and of ctx. A terminal event already read, or one the
// session's filter hides, does not cut a later linger short.
func TestLingerEndsOnlyForTerminalEvents(t *testing.T) {
	const (
		long  = 10 * time.Second       // a linger no case may sit out
		short = 100 * time.Millisecond // a linger the case must sit out
		slack = 2 * time.Second
	)
	// linger runs s.Linger(ctx, d) while during runs, and returns how
	// long it took.
	linger := func(ctx context.Context, s *Session, d time.Duration, during func()) time.Duration {
		took := make(chan time.Duration)
		go func() {
			t0 := time.Now()
			s.Linger(ctx, d)
			took <- time.Since(t0)
		}()
		time.Sleep(20 * time.Millisecond)
		during()
		return <-took
	}
	interval := api.Event{Kind: api.EventInterval}
	cellDone := api.Event{Kind: api.EventCellDone, Cell: 0}

	t.Run("telemetry-then-cell-done", func(t *testing.T) {
		b := testRegistry(t, Config{}).Create("job-1")
		s := b.Subscribe(SubOptions{})
		defer s.Close()
		took := linger(context.Background(), s, long, func() {
			b.Publish(interval)
			b.Publish(interval)
			b.Publish(cellDone)
		})
		if took > slack {
			t.Fatalf("a cell-done published during a %v linger ended it after %v", long, took)
		}
		var kinds []string
		for {
			ev, ok, err := s.TryNext()
			if !ok || err != nil {
				break
			}
			kinds = append(kinds, ev.Kind)
		}
		if want := "[interval interval cell-done]"; fmt.Sprint(kinds) != want {
			t.Errorf("read %v after the linger, want %s", kinds, want)
		}
	})

	t.Run("telemetry-only", func(t *testing.T) {
		b := testRegistry(t, Config{}).Create("job-1")
		s := b.Subscribe(SubOptions{})
		defer s.Close()
		took := linger(context.Background(), s, short, func() {
			for i := 0; i < 50; i++ {
				b.Publish(interval)
			}
		})
		if took < short {
			t.Errorf("telemetry ended a %v linger after %v", short, took)
		}
	})

	t.Run("cell-done-already-waiting", func(t *testing.T) {
		b := testRegistry(t, Config{}).Create("job-1")
		s := b.Subscribe(SubOptions{})
		defer s.Close()
		b.Publish(interval)
		b.Publish(cellDone)
		if took := linger(context.Background(), s, long, func() {}); took > slack {
			t.Errorf("an unread cell-done let the linger run %v", took)
		}
	})

	t.Run("cell-done-already-read", func(t *testing.T) {
		b := testRegistry(t, Config{}).Create("job-1")
		s := b.Subscribe(SubOptions{})
		defer s.Close()
		b.Publish(cellDone)
		if _, ok, err := s.TryNext(); !ok || err != nil {
			t.Fatalf("TryNext = (%v, %v), want the cell-done", ok, err)
		}
		if took := linger(context.Background(), s, short, func() { b.Publish(interval) }); took < short {
			t.Errorf("a cell-done read before the linger ended it after %v", took)
		}
	})

	t.Run("cell-done-filtered-out", func(t *testing.T) {
		b := testRegistry(t, Config{}).Create("job-1")
		s := b.Subscribe(SubOptions{Filter: func(ev api.Event) bool { return ev.Kind == api.EventInterval }})
		defer s.Close()
		if took := linger(context.Background(), s, short, func() { b.Publish(cellDone) }); took < short {
			t.Errorf("a cell-done the session filters out ended its linger after %v", took)
		}
	})

	for _, end := range []struct {
		name string
		do   func(b *Broadcaster, s *Session, cancel context.CancelFunc)
	}{
		{"session-close", func(_ *Broadcaster, s *Session, _ context.CancelFunc) { s.Close() }},
		{"stream-close", func(b *Broadcaster, _ *Session, _ context.CancelFunc) { b.Close() }},
		{"ctx-cancel", func(_ *Broadcaster, _ *Session, cancel context.CancelFunc) { cancel() }},
	} {
		t.Run(end.name, func(t *testing.T) {
			b := testRegistry(t, Config{}).Create("job-1")
			s := b.Subscribe(SubOptions{})
			defer s.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			took := linger(ctx, s, long, func() {
				b.Publish(interval)
				end.do(b, s, cancel)
			})
			if took > slack {
				t.Errorf("%s during a %v linger ended it after %v", end.name, long, took)
			}
		})
	}
}

package experiments

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// setProcs pins GOMAXPROCS (runGrouped's worker count) for one test.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// within fails the test if fn has not returned after a generous bound: a
// scheduler that parks or deadlocks shows up as this, not as a hung suite.
func within(t *testing.T, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("scheduler did not return")
	}
}

// While one group's prerequisite is stuck, the other worker must build and
// run every other group instead of parking on it (what the per-group
// sync.Once used to make it do), and live groups stay within workers+1.
func TestSchedBlockedPrepDoesNotParkWorkers(t *testing.T) {
	const workers, groups, per = 2, 5, 3
	setProcs(t, workers)
	var (
		mu            sync.Mutex
		live, maxLive int
		left          = make(map[int]int)
		ran           = make([]int, groups*per)
		release       = make(chan struct{})
		released      bool
	)
	var err error
	within(t, func() {
		err = runGrouped(context.Background(), groups*per,
			func(i int) string { return strconv.Itoa(i / per) },
			func(first int) (int, error) {
				g := first / per
				mu.Lock()
				live++
				maxLive = max(maxLive, live)
				left[g] = per
				mu.Unlock()
				if g == 0 {
					<-release
				}
				return g, nil
			},
			func(_ context.Context, i, g int) error {
				if g != i/per {
					t.Errorf("task %d got group %d's prerequisite", i, g)
				}
				mu.Lock()
				defer mu.Unlock()
				ran[i]++
				if g == groups-1 && !released {
					// Only reachable while group 0 is still blocked if the
					// free worker walked all the other groups on its own.
					released = true
					close(release)
				}
				if left[g]--; left[g] == 0 {
					live--
				}
				return nil
			})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range ran {
		if n != 1 {
			t.Errorf("task %d ran %d times", i, n)
		}
	}
	if maxLive > workers+1 {
		t.Errorf("%d groups live at once, bound is workers+1 = %d", maxLive, workers+1)
	}
}

// A failing prerequisite is the error returned, even though the tasks it
// cancels fail afterwards with the context's error; no later group is
// started and every worker has exited by the time runGrouped returns.
func TestSchedFailingPrepCancelsTheRest(t *testing.T) {
	const per = 3
	setProcs(t, 2)
	before := runtime.NumGoroutine()
	boom := errors.New("plan build failed")
	taskRunning := make(chan struct{})
	var (
		mu    sync.Mutex
		preps []int
	)
	var err error
	within(t, func() {
		err = runGrouped(context.Background(), 4*per,
			func(i int) string { return strconv.Itoa(i / per) },
			func(first int) (int, error) {
				mu.Lock()
				preps = append(preps, first/per)
				mu.Unlock()
				if first/per == 1 {
					<-taskRunning
					return 0, boom
				}
				return first / per, nil
			},
			func(ctx context.Context, i, g int) error {
				if i > 0 {
					return nil
				}
				close(taskRunning)
				<-ctx.Done()
				return ctx.Err()
			})
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the prerequisite's error", err)
	}
	if len(preps) != 2 {
		t.Errorf("prerequisites built for groups %v, want only 0 and 1", preps)
	}
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		time.Sleep(10 * time.Millisecond) // within()'s helper goroutine unwinding
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after return, %d before", n, before)
	}
}

// Cancelling the caller's context stops a run whose tasks honour it.
func TestSchedContextCancel(t *testing.T) {
	setProcs(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		err     error
		started atomic.Int32
	)
	within(t, func() {
		err = runGrouped(ctx, 12,
			func(i int) string { return strconv.Itoa(i / 3) },
			func(first int) (int, error) { return first, nil },
			func(ctx context.Context, i, _ int) error {
				// The second task to start cancels while the first waits.
				// Which tasks those are depends on which of the first two
				// preps finishes first (0 and 1, or 3 and 0, ...).
				if started.Add(1) == 2 {
					cancel()
				}
				<-ctx.Done()
				return ctx.Err()
			})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

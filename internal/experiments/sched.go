package experiments

import (
	"context"
	"runtime"
	"sync"
)

// runGrouped runs run(ctx, i, v) for every task i in [0, n) on up to
// GOMAXPROCS workers. Tasks with equal key(i) form a group that shares one
// prerequisite v (a built workload image, a sampling plan), and building
// it is a task of its own rather than something the group's first worker
// does while the others park: a free worker takes the oldest task whose
// prerequisite is ready, else builds the next group's (prep is handed the
// group's first task), else waits. A group is live from the start of its
// prep until its last task returns, when v is dropped. A prep starts only
// when no ready task is left to take, so every live group then occupies a
// worker of its own (building it, or running its last tasks): live groups
// never outnumber the workers, and peak memory follows the worker count,
// not the task list. The first error (from prep, run or ctx) cancels the
// ctx the remaining tasks see and is returned once every worker has
// stopped.
func runGrouped[V any](ctx context.Context, n int, key func(i int) string, prep func(first int) (V, error), run func(ctx context.Context, i int, v V) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type group struct {
		v     V
		ready bool
		todo  []int // tasks not yet taken, ascending
		left  int   // tasks not yet returned
	}
	var groups []*group
	byKey := make(map[string]*group)
	for i := 0; i < n; i++ {
		g := byKey[key(i)]
		if g == nil {
			g = &group{}
			byKey[key(i)] = g
			groups = append(groups, g)
		}
		g.todo = append(g.todo, i)
		g.left++
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	var (
		mu       sync.Mutex
		wake     = sync.NewCond(&mu)
		started  int // groups[:started] have had their prep taken
		firstErr error
	)
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
			cancel()
		}
	}
	var wg sync.WaitGroup
	worker := func() {
		defer wg.Done()
		mu.Lock()
		defer mu.Unlock()
		defer wake.Broadcast() // a stopping worker may be the last thing others wait on
		for {
			fail(ctx.Err())
			var next *group
			pending := started < len(groups)
			for _, g := range groups[:started] {
				if len(g.todo) == 0 {
					continue
				}
				pending = true
				if g.ready && (next == nil || g.todo[0] < next.todo[0]) {
					next = g
				}
			}
			switch {
			case firstErr != nil || !pending:
				return
			case next != nil:
				i, v := next.todo[0], next.v
				next.todo = next.todo[1:]
				mu.Unlock()
				err := run(ctx, i, v)
				mu.Lock()
				fail(err)
				if next.left--; next.left == 0 {
					var zero V
					next.v = zero
				}
			case started < len(groups):
				g := groups[started]
				first := g.todo[0]
				started++
				mu.Unlock()
				v, err := prep(first)
				mu.Lock()
				fail(err)
				g.v, g.ready = v, true
				wake.Broadcast()
			default:
				wake.Wait()
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	return firstErr
}

package cpu

import (
	"math/rand"
	"slices"
	"testing"
)

// heapQueue is the reference implementation the counting ring replaced: a
// binary min-heap of the outstanding issue cycles, popped as they issue.
type heapQueue struct {
	size int
	h    []uint64
}

func (q *heapQueue) admit(at uint64) uint64 {
	q.drain(at)
	for len(q.h) >= q.size {
		m := q.pop()
		if m > at {
			at = m
		}
		q.drain(at)
	}
	return at
}

func (q *heapQueue) record(issue uint64) {
	q.h = append(q.h, issue)
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q.h[p] <= q.h[i] {
			break
		}
		q.h[p], q.h[i] = q.h[i], q.h[p]
		i = p
	}
}

func (q *heapQueue) drain(at uint64) {
	for len(q.h) > 0 && q.h[0] <= at {
		q.pop()
	}
}

func (q *heapQueue) pop() uint64 {
	m := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(q.h) && q.h[l] < q.h[small] {
			small = l
		}
		if r < len(q.h) && q.h[r] < q.h[small] {
			small = r
		}
		if small == i {
			break
		}
		q.h[i], q.h[small] = q.h[small], q.h[i]
		i = small
	}
	return m
}

// TestIssueQueueMatchesHeap drives the ring and the heap with the same
// stream the core produces — nondecreasing admits, each followed by an
// issue after the dispatch cycle — and requires identical admit results
// and occupancy. The stream mixes back-to-back dispatch, idle gaps longer
// than the ring, and issues far enough ahead to force it to grow; midway
// the ring is exported and loaded into a fresh queue, as a checkpoint
// resume does.
func TestIssueQueueMatchesHeap(t *testing.T) {
	for _, size := range []int{1, 8, 128} {
		rng := rand.New(rand.NewSource(int64(size)))
		ring := newIssueQueue(size)
		ref := &heapQueue{size: size}
		var at uint64
		grew := false
		for i := 0; i < 200_000; i++ {
			switch r := rng.Intn(100); {
			case r < 60: // same cycle
			case r < 98:
				at += uint64(rng.Intn(4))
			default:
				at += uint64(rng.Intn(4 * iqInitialSpan))
			}
			got, want := ring.admit(at), ref.admit(at)
			if got != want {
				t.Fatalf("size %d, step %d: admit(%d) = %d, heap says %d", size, i, at, got, want)
			}
			if ring.n != len(ref.h) {
				t.Fatalf("size %d, step %d: occupancy %d, heap holds %d", size, i, ring.n, len(ref.h))
			}
			at = got
			issue := at + 1 + uint64(rng.Intn(40))
			if rng.Intn(500) == 0 {
				issue += uint64(rng.Intn(64 * iqInitialSpan))
			}
			ring.record(issue)
			ref.record(issue)
			grew = grew || len(ring.cnt) > iqInitialSpan

			if i == 100_000 {
				exp := ring.export()
				want := slices.Clone(ref.h)
				slices.Sort(want)
				if !slices.Equal(exp, want) {
					t.Fatalf("size %d: export %v, heap holds %v", size, exp, want)
				}
				ring = newIssueQueue(size)
				ring.load(exp, at)
			}
		}
		if !grew {
			t.Errorf("size %d: the stream never grew the ring", size)
		}
	}
}

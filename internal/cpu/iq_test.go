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

// stepQueue is the counting ring as first written: admit walks the cursor
// one cycle at a time, empty cycles included. The occupancy bitmap must
// reproduce it exactly — admit results, the cursor and the counts — while
// jumping over the empty cycles.
type stepQueue struct {
	size int
	n    int
	cur  uint64
	cnt  []uint32
}

func (q *stepQueue) admit(at uint64) uint64 {
	if at > q.cur {
		for q.n > 0 && q.cur < at {
			q.free()
		}
		q.cur = at
	}
	for q.n >= q.size {
		q.free()
	}
	return q.cur
}

func (q *stepQueue) free() {
	q.cur++
	s := &q.cnt[q.cur&uint64(len(q.cnt)-1)]
	q.n -= int(*s)
	*s = 0
}

func (q *stepQueue) record(issue uint64) {
	if issue <= q.cur {
		return
	}
	for issue-q.cur > uint64(len(q.cnt)) {
		old := q.cnt
		q.cnt = make([]uint32, 2*len(old))
		for c := q.cur + 1; c <= q.cur+uint64(len(old)); c++ {
			q.cnt[c&uint64(len(q.cnt)-1)] = old[c&uint64(len(old)-1)]
		}
	}
	q.cnt[issue&uint64(len(q.cnt)-1)]++
	q.n++
}

// TestIssueQueueSkipMatchesStepping drives the bitmap queue and the
// per-cycle stepping reference with seeded random streams: dense dispatch,
// idle gaps longer than the ring, a full queue waiting on far issues, and
// issues far enough ahead to grow the ring. Every admit, cursor and
// occupancy must agree, and so must the per-cycle counts.
func TestIssueQueueSkipMatchesStepping(t *testing.T) {
	for seed, size := range []int{1, 4, 128, 300} {
		rng := rand.New(rand.NewSource(int64(seed) + 41))
		q, ref := newIssueQueue(size), &stepQueue{size: size, cnt: make([]uint32, iqInitialSpan)}
		var at uint64
		for i := 0; i < 100_000; i++ {
			switch r := rng.Intn(100); {
			case r < 50:
			case r < 95:
				at += uint64(rng.Intn(8))
			default:
				at += uint64(rng.Intn(3 * iqInitialSpan))
			}
			got, want := q.admit(at), ref.admit(at)
			if got != want || q.cur != ref.cur || q.n != ref.n {
				t.Fatalf("size %d step %d: admit(%d) = %d cur %d n %d, stepping says %d cur %d n %d",
					size, i, at, got, q.cur, q.n, want, ref.cur, ref.n)
			}
			at = got
			issue := at + 1 + uint64(rng.Intn(200))
			if rng.Intn(300) == 0 {
				issue += uint64(rng.Intn(16 * iqInitialSpan))
			}
			q.record(issue)
			ref.record(issue)
		}
		if len(q.cnt) != len(ref.cnt) {
			t.Fatalf("size %d: ring of %d cycles, stepping grew to %d", size, len(q.cnt), len(ref.cnt))
		}
		for c := q.cur + 1; c <= q.cur+uint64(len(q.cnt)); c++ {
			s := q.slot(c)
			if q.cnt[s] != ref.cnt[s] || (q.occ[s>>6]>>(s&63)&1 == 1) != (q.cnt[s] != 0) {
				t.Fatalf("size %d: cycle %d count %d (bitmap %v), stepping %d", size, c, q.cnt[s], q.occ[s>>6]>>(s&63)&1 == 1, ref.cnt[s])
			}
		}
	}
}

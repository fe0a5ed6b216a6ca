package cpu

import (
	"math/bits"
	"slices"
)

// issueQueue tracks issue-queue occupancy. Entries are allocated at
// dispatch and freed at issue, which happens out of program order. The
// contract is: admit(at) returns the smallest t >= at at which fewer than
// size recorded issue cycles are > t.
//
// Callers admit at nondecreasing cycles (dispatch comes from the fetch
// widthLimiter, which never goes back), so an entry that has issued by one
// admit has issued by every later one and can be forgotten. That makes a
// count of entries per future cycle plus a cursor that only moves forward
// sufficient. The counts live in a power-of-two ring covering the cycles
// (cur, cur+len(cnt)]; record doubles it when an issue lands beyond. The
// queue also keeps head, the earliest outstanding issue cycle, and an
// occupancy bitmap beside the ring marking the cycles with a nonzero
// count: an admit before head frees nothing and costs a compare, and
// freeing head finds the next one by scanning bitmap words, so admit costs
// per entry freed, not per cycle passed.
type issueQueue struct {
	size int
	n    int      // outstanding entries: recorded issue cycles > cur
	cur  uint64   // entries issuing at or before cur have been freed
	head uint64   // earliest outstanding issue cycle, when n > 0
	cnt  []uint32 // ring of per-cycle entry counts (see slot), covering cur < c <= cur+len(cnt)
	occ  []uint64 // bit s set iff cnt[s] != 0
}

// iqInitialSpan is the ring's starting coverage in cycles. Issue runs a
// few hundred cycles ahead of dispatch unless a dependence chain of misses
// stretches it, so most runs never grow the ring. It is a multiple of 64,
// one bitmap word per 64 cycles.
const iqInitialSpan = 512

// maxIQSpan bounds how far past dispatch a restored snapshot's issue cycles
// may lie. The ring is sized by that distance, so an unchecked value from a
// crafted checkpoint file would be an allocation of its author's choosing;
// live runs reach tens of thousands of cycles (a ROB of dependent misses).
const maxIQSpan = 1 << 24

// iqLoadable reports whether entries, a snapshot's list of outstanding
// issue cycles, can be loaded with the cursor at floor: ascending, and
// none more than maxIQSpan past it.
func iqLoadable(entries []uint64, floor uint64) bool {
	if len(entries) == 0 {
		return true
	}
	last := entries[len(entries)-1]
	return slices.IsSorted(entries) && (last <= floor || last-floor <= maxIQSpan)
}

func newIssueQueue(size int) issueQueue {
	return issueQueue{size: size, cnt: make([]uint32, iqInitialSpan), occ: make([]uint64, iqInitialSpan/64)}
}

// admit returns the earliest cycle (>= at) at which a new instruction can
// be dispatched into the queue, freeing the entries issued by that cycle.
func (q *issueQueue) admit(at uint64) uint64 {
	if at > q.cur {
		for q.n > 0 && q.head <= at {
			q.free()
		}
		q.cur = at
	}
	for q.n >= q.size {
		q.free()
	}
	return q.cur
}

// slot returns the ring index of cycle c, which must lie in the ring's
// coverage.
func (q *issueQueue) slot(c uint64) uint64 {
	return c & uint64(len(q.cnt)-1)
}

// free moves the cursor to head and releases the entries issuing then,
// then finds the next head: the bitmap is scanned circularly from the
// slot after it, and every entry lies within one ring length of that.
func (q *issueQueue) free() {
	c := q.head
	q.cur = c
	s := q.slot(c)
	q.n -= int(q.cnt[s])
	q.cnt[s] = 0
	q.occ[s>>6] &^= 1 << (s & 63)
	if q.n == 0 {
		return
	}
	pos := q.slot(c + 1)
	w := pos >> 6
	word := q.occ[w] &^ (1<<(pos&63) - 1)
	for word == 0 {
		w = (w + 1) & uint64(len(q.occ)-1)
		word = q.occ[w]
	}
	q.head = c + 1 + q.slot(w<<6|uint64(bits.TrailingZeros64(word))-pos)
}

// record notes the issue cycle of the instruction just dispatched.
func (q *issueQueue) record(issue uint64) {
	if issue <= q.cur {
		return // already issued as of the last admit: never occupies a slot
	}
	if issue-q.cur > uint64(len(q.cnt)) {
		q.grow(issue)
	}
	if q.n == 0 || issue < q.head {
		q.head = issue
	}
	s := q.slot(issue)
	q.cnt[s]++
	q.occ[s>>6] |= 1 << (s & 63)
	q.n++
}

// grow doubles the ring until it covers issue, keeping each outstanding
// cycle's count.
func (q *issueQueue) grow(issue uint64) {
	span := uint64(len(q.cnt))
	for issue-q.cur > span {
		span *= 2
	}
	old := q.cnt
	q.cnt = make([]uint32, span)
	q.occ = make([]uint64, span/64)
	for c := q.cur + 1; c <= q.cur+uint64(len(old)); c++ {
		if n := old[c&uint64(len(old)-1)]; n != 0 {
			s := q.slot(c)
			q.cnt[s] = n
			q.occ[s>>6] |= 1 << (s & 63)
		}
	}
}

// export returns the outstanding issue cycles in ascending order.
func (q *issueQueue) export() []uint64 {
	out := make([]uint64, 0, q.n)
	for c := q.cur + 1; len(out) < q.n; c++ {
		for i := q.cnt[q.slot(c)]; i > 0; i-- {
			out = append(out, c)
		}
	}
	return out
}

// load resets the queue to the outstanding issue cycles in entries with
// the cursor at floor, a cycle no later admit precedes (entries at or
// before it have issued).
func (q *issueQueue) load(entries []uint64, floor uint64) {
	clear(q.cnt)
	clear(q.occ)
	q.n, q.cur = 0, floor
	for _, e := range entries {
		q.record(e)
	}
}

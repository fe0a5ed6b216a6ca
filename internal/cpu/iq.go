package cpu

import "slices"

// issueQueue tracks issue-queue occupancy. Entries are allocated at
// dispatch and freed at issue, which happens out of program order. The
// contract is: admit(at) returns the smallest t >= at at which fewer than
// size recorded issue cycles are > t.
//
// Callers admit at nondecreasing cycles (dispatch comes from the fetch
// widthLimiter, which never goes back), so an entry that has issued by one
// admit has issued by every later one and can be forgotten. That makes a
// count of entries per future cycle plus a cursor that only moves forward
// sufficient: admit walks the cursor over the cycles it passes, subtracting
// their counts. The counts live in a power-of-two ring covering the cycles
// (cur, cur+len(cnt)]; record doubles it when an issue lands beyond.
type issueQueue struct {
	size int
	n    int      // outstanding entries: recorded issue cycles > cur
	cur  uint64   // entries issuing at or before cur have been freed
	cnt  []uint32 // ring of per-cycle entry counts (see slot), covering cur < c <= cur+len(cnt)
}

// iqInitialSpan is the ring's starting coverage in cycles. Issue runs a
// few hundred cycles ahead of dispatch unless a dependence chain of misses
// stretches it, so most runs never grow the ring.
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

func newIssueQueue(size int) *issueQueue {
	return &issueQueue{size: size, cnt: make([]uint32, iqInitialSpan)}
}

// admit returns the earliest cycle (>= at) at which a new instruction can
// be dispatched into the queue, freeing the entries issued by that cycle.
func (q *issueQueue) admit(at uint64) uint64 {
	if at > q.cur {
		for q.n > 0 && q.cur < at {
			q.free()
		}
		q.cur = at // an empty queue's ring is all zeros: jump
	}
	for q.n >= q.size {
		q.free()
	}
	return q.cur
}

// slot returns the count of entries issuing at cycle c, which must lie in
// the ring's coverage.
func (q *issueQueue) slot(c uint64) *uint32 {
	return &q.cnt[c&uint64(len(q.cnt)-1)]
}

// free advances the cursor one cycle and releases the entries issuing then.
func (q *issueQueue) free() {
	q.cur++
	s := q.slot(q.cur)
	q.n -= int(*s)
	*s = 0
}

// record notes the issue cycle of the instruction just dispatched.
func (q *issueQueue) record(issue uint64) {
	if issue <= q.cur {
		return // already issued as of the last admit: never occupies a slot
	}
	if issue-q.cur > uint64(len(q.cnt)) {
		q.grow(issue)
	}
	*q.slot(issue)++
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
	for c := q.cur + 1; c <= q.cur+uint64(len(old)); c++ {
		q.cnt[c&(span-1)] = old[c&uint64(len(old)-1)]
	}
}

// export returns the outstanding issue cycles in ascending order.
func (q *issueQueue) export() []uint64 {
	out := make([]uint64, 0, q.n)
	for c := q.cur + 1; len(out) < q.n; c++ {
		for i := *q.slot(c); i > 0; i-- {
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
	q.n, q.cur = 0, floor
	for _, e := range entries {
		q.record(e)
	}
}

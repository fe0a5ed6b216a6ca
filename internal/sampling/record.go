package sampling

import (
	"dvr/internal/interp"
	"dvr/internal/isa"
	"dvr/internal/mem"
)

// stream is what the profile pass records of the committed stream for the
// walk: every branch, the load/store line stream and the store log, plus
// the architectural state and the stream offsets at every window start. It
// is all the walk needs to warm a predictor and a cache hierarchy and to
// rebuild memory at any window start without executing the ROI again. A
// record is transient: NewPlan drops it once the walk has consumed it.
type stream struct {
	// marks[i] is the start of window i; one more mark ends the ROI.
	marks []mark
	// branches holds one word per committed branch: pc<<2 | taken<<1 |
	// unconditional (a program's code index fits in 30 bits).
	branches chunked[uint32]
	// lines holds one word per load and store, line<<1 | write, with
	// consecutive accesses to one line dropped (see Plan.walk).
	lines chunked[uint64]
	// stores is the store log, in commit order.
	stores chunked[storeRec]
	// image is the memory at the ROI start, frozen: the walk applies the
	// store log to a fork of it.
	image *interp.Memory

	// The line of the last recorded access and whether it was a store.
	lastLine  uint64
	lastWrite bool
}

// mark is the state of the pass at a window start: the registers, the
// dynamic instruction number and how far each record had grown.
type mark struct {
	st                      interp.State
	seq                     uint64
	branches, lines, stores int
}

type storeRec struct{ addr, val uint64 }

func newStream(image *interp.Memory, wins int) *stream {
	return &stream{marks: make([]mark, 0, wins+1), image: image, lastLine: ^uint64(0)}
}

// mark records that the next window starts at the interpreter's current
// state.
func (r *stream) mark(it *interp.Interp) {
	r.marks = append(r.marks, mark{st: it.St, seq: it.Seq,
		branches: r.branches.len(), lines: r.lines.len(), stores: r.stores.len()})
}

// branch records a committed branch.
func (r *stream) branch(di *interp.DynInst) {
	w := uint32(di.PC) << 2
	if di.Taken {
		w |= 2
	}
	if di.Inst.Cond == isa.Always {
		w |= 1
	}
	r.branches.add(w)
}

// access records a load or a store to addr in the line stream, unless the
// previous access was to the same line and already did what this one would:
// a load after any access to its line adds nothing, a store after a load
// to its line still sets the dirty bit.
func (r *stream) access(addr uint64, write bool) {
	if line := addr / mem.LineSize; line != r.lastLine || write && !r.lastWrite {
		w := line << 1
		if write {
			w |= 1
		}
		r.lines.add(w)
		r.lastLine, r.lastWrite = line, write
	}
}

// chunkLen is how many entries a record chunk holds: recording appends into
// fixed-capacity chunks, so it never copies what it already holds the way
// a growing slice would.
const (
	chunkShift = 14
	chunkLen   = 1 << chunkShift
)

// chunked is an append-only sequence stored as chunkLen-entry chunks.
type chunked[T any] struct {
	full [][]T // the filled chunks
	cur  []T   // the chunk being filled
}

func (c *chunked[T]) add(v T) {
	if len(c.cur) == cap(c.cur) {
		c.grow()
	}
	c.cur = append(c.cur, v)
}

// grow starts a new chunk.
func (c *chunked[T]) grow() {
	if c.cur != nil {
		c.full = append(c.full, c.cur)
	}
	c.cur = make([]T, 0, chunkLen)
}

func (c *chunked[T]) len() int { return len(c.full)*chunkLen + len(c.cur) }

// each calls fn on entries [from, to), a chunk's worth at a time.
func (c *chunked[T]) each(from, to int, fn func([]T)) {
	for from < to {
		ch := c.cur
		if i := from >> chunkShift; i < len(c.full) {
			ch = c.full[i]
		}
		lo := from & (chunkLen - 1)
		hi := min(len(ch), lo+to-from)
		fn(ch[lo:hi])
		from += hi - lo
	}
}

// Package cpu implements the trace-driven, cycle-level out-of-order core
// timing model of Table 1: a 5-wide, 350-entry-ROB superscalar with
// issue/load/store queues, a per-port functional-unit contention model, a
// TAGE branch predictor with a 15-stage front-end redirect penalty, and the
// full-ROB stall accounting that runahead techniques trigger on. Runahead
// engines and prefetchers attach through the Engine interface and observe
// the committed instruction stream.
package cpu

import (
	"dvr/internal/bpred"
	"dvr/internal/calendar"
	"dvr/internal/mem"
)

// Config is the core configuration (Table 1).
type Config struct {
	Width         int // fetch/dispatch/rename/commit width
	ROBSize       int
	IQSize        int
	LQSize        int
	SQSize        int
	FrontendDepth int // front-end pipeline stages = mispredict redirect penalty

	IntALUs    int // 1-cycle integer units
	IntMuls    int // 3-cycle multiplier
	IntDivs    int // 18-cycle unpipelined divider
	LoadPorts  int
	StorePorts int

	MulLatency  uint64
	DivLatency  uint64
	HashLatency uint64 // the micro-ISA hash op (a few ALU ops' worth)

	Mem   mem.Config
	Bpred bpred.Config
}

// DefaultConfig returns the Table 1 baseline: a 4 GHz, 5-wide out-of-order
// core with a 350-entry ROB, 128-entry issue queue, 128-entry load queue,
// 72-entry store queue, 15 front-end stages, 4 int adders, 1 multiplier,
// 1 divider, an 8 KB TAGE-class predictor and the Table 1 memory hierarchy.
func DefaultConfig() Config {
	return Config{
		Width:         5,
		ROBSize:       350,
		IQSize:        128,
		LQSize:        128,
		SQSize:        72,
		FrontendDepth: 15,
		IntALUs:       4,
		IntMuls:       1,
		IntDivs:       1,
		LoadPorts:     2,
		StorePorts:    1,
		MulLatency:    3,
		DivLatency:    18,
		HashLatency:   3,
		Mem:           mem.DefaultConfig(),
		Bpred:         bpred.DefaultConfig(),
	}
}

// WithROB returns a copy of the configuration with a different ROB size;
// the ROB-sensitivity experiments (Figures 2 and 12) use it.
func (c Config) WithROB(size int) Config {
	c.ROBSize = size
	return c
}

// ScaleBackend returns a copy with issue/load/store queues scaled in
// proportion to the ROB relative to the 350-entry baseline, as in the
// paper's back-end-scaling sensitivity study.
func (c Config) ScaleBackend(robSize int) Config {
	f := float64(robSize) / 350.0
	c.ROBSize = robSize
	c.IQSize = int(128 * f)
	c.LQSize = int(128 * f)
	c.SQSize = int(72 * f)
	if c.IQSize < 8 {
		c.IQSize = 8
	}
	if c.LQSize < 8 {
		c.LQSize = 8
	}
	if c.SQSize < 8 {
		c.SQSize = 8
	}
	return c
}

// widthLimiter assigns monotonically nondecreasing cycles to a stream of
// events with at most `width` events per cycle (fetch and commit widths).
type widthLimiter struct {
	width int
	cycle uint64
	count int
}

// next returns the cycle assigned to an event that is eligible at cycle
// `at`.
func (w *widthLimiter) next(at uint64) uint64 {
	if at > w.cycle {
		w.cycle = at
		w.count = 1
		return w.cycle
	}
	if w.count < w.width {
		w.count++
		return w.cycle
	}
	w.cycle++
	w.count = 1
	return w.cycle
}

// fuPool models a pool of identical functional units as a per-cycle
// calendar: pipelined units accept `units` new operations every cycle;
// unpipelined ones accept `units` operations per latency-sized window.
// A calendar (rather than a next-free cursor) is required because the
// simulator processes instructions in program order while their issue
// timestamps are out of order: an operation issued far in the future must
// not block one issued earlier in time but processed later. The calendar
// is a ring buffer (internal/calendar) rather than a map: every simulated
// instruction books a functional-unit slot.
type fuPool struct {
	units     uint16
	latency   uint64
	pipelined bool
	cal       *calendar.Calendar
}

func newFUPool(n int, latency uint64, pipelined bool) fuPool {
	if latency == 0 {
		latency = 1
	}
	return fuPool{units: uint16(n), latency: latency, pipelined: pipelined, cal: calendar.New()}
}

// issue schedules an operation no earlier than `at` and returns the actual
// issue cycle.
func (f *fuPool) issue(at uint64) uint64 {
	if f.pipelined {
		return f.cal.Reserve(at, f.units)
	}
	// Unpipelined: one operation per unit per latency window.
	e := f.cal.Reserve(at/f.latency, f.units)
	start := e * f.latency
	if at > start {
		start = at
	}
	return start
}

// release tells the calendar that no operation will issue at or before
// cycle, so it can drop those epochs.
func (f *fuPool) release(cycle uint64) {
	epoch := cycle + 1
	if !f.pipelined {
		epoch /= f.latency
	}
	f.cal.Release(epoch)
}

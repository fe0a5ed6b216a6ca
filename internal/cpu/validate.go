package cpu

import "fmt"

// maxWindow bounds the pipeline width and the ROB, issue-, load- and
// store-queue sizes, which the core allocates per run: far above any
// figure's (ROB 512 at most, Table 1's queues), low enough that a request
// cannot make dvrd allocate without bound.
const maxWindow = 1 << 16

// Validate rejects core configurations the timing model cannot simulate.
// Config arrives over the dvrd wire, so degenerate values are request
// errors, not programmer errors: without this check a zero ROB size is a
// division by zero in the commit ring, and a zero functional-unit count
// makes calendar.Reserve spin forever (capacity 0 never admits a booking)
// — a request-shaped livelock no watchdog should have to catch. Every size
// that allocates has an upper bound too (maxWindow here, the cache and
// predictor bounds in mem and bpred): without one, rob_size 1<<40 passes
// and the allocation kills dvrd with an unrecoverable out-of-memory error.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"width", c.Width},
		{"rob_size", c.ROBSize},
		{"iq_size", c.IQSize},
		{"lq_size", c.LQSize},
		{"sq_size", c.SQSize},
		{"int_alus", c.IntALUs},
		{"int_muls", c.IntMuls},
		{"int_divs", c.IntDivs},
		{"load_ports", c.LoadPorts},
		{"store_ports", c.StorePorts},
	} {
		if f.v < 1 {
			return fmt.Errorf("cpu: config %s must be >= 1, got %d", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"int_alus", c.IntALUs},
		{"int_muls", c.IntMuls},
		{"int_divs", c.IntDivs},
		{"load_ports", c.LoadPorts},
		{"store_ports", c.StorePorts},
	} {
		if f.v > 0xffff {
			return fmt.Errorf("cpu: config %s must fit 16 bits, got %d", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"width", c.Width},
		{"rob_size", c.ROBSize},
		{"iq_size", c.IQSize},
		{"lq_size", c.LQSize},
		{"sq_size", c.SQSize},
	} {
		if f.v > maxWindow {
			return fmt.Errorf("cpu: config %s must be <= %d, got %d", f.name, maxWindow, f.v)
		}
	}
	if c.FrontendDepth < 0 {
		return fmt.Errorf("cpu: config frontend_depth must be >= 0, got %d", c.FrontendDepth)
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	return c.Bpred.Validate()
}

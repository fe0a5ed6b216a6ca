// Package calendar provides a fixed-size ring-buffer booking calendar for
// the timing models' bandwidth and port schedulers. The simulator processes
// instructions in program order while their timestamps are out of order, so
// schedulers must accept reservations at arbitrary epochs ("calendars, not
// cursors", DESIGN.md §Modeling-decisions). A map keyed by epoch models
// this exactly but costs a hash per reservation on the hottest simulator
// path; the ring keeps the recent epoch window in a flat array and falls
// back to a tiny overflow map only for stragglers that land further in the
// past than the window covers, preserving the map semantics bit for bit.
package calendar

import (
	"cmp"
	"maps"
	"slices"
)

// window is the number of epoch slots kept in the flat ring. Timestamp
// spread inside one simulation is bounded by the dependence chains the ROB
// window can hold (hundreds of thousands of cycles in the worst case);
// epochs that fall out of the ring are handled exactly via the overflow
// map, so the window size only affects speed, never results.
const window = 1 << 13

// Calendar counts reservations per epoch with a bounded capacity per epoch.
// The zero value is not usable; call New.
//
// Epochs evicted from the ring are appended to a retirement log rather
// than hashed into the overflow map immediately: long simulations retire
// one epoch per epoch of progress (every used epoch is eventually lapped),
// while straggler reservations that actually need an old epoch's count are
// rare. The log is folded into the map in one batch the first time a
// straggler probes it, so the common no-straggler run never hashes at all.
//
// Its owner says with Release that it will never reserve below some epoch,
// and the calendar forgets everything older: evicted epochs below the
// floor are not logged and Export omits them, so a calendar whose floor
// follows the simulation holds O(window) state however long the run. The
// functional-unit and DRAM calendars are both released from the core's
// fetch cycle.
type Calendar struct {
	tags     []uint64       // epoch currently occupying each slot
	counts   []uint16       // reservations booked in that epoch
	retired  []retiredEpoch // evicted epochs not yet folded into overflow
	overflow map[uint64]uint16
	booked   uint64
	floor    uint64 // Release floor: no Reserve targets an epoch below it
}

type retiredEpoch struct {
	epoch uint64
	count uint16
}

// New returns an empty calendar.
func New() *Calendar {
	return &Calendar{
		tags:   make([]uint64, window),
		counts: make([]uint16, window),
	}
}

// Reserve books one slot in the first epoch >= epoch with fewer than cap
// reservations and returns that epoch.
func (c *Calendar) Reserve(epoch uint64, capacity uint16) uint64 {
	for {
		if c.claim(epoch, capacity) {
			return epoch
		}
		epoch++
	}
}

// claim books one reservation in exactly epoch if it has spare capacity.
func (c *Calendar) claim(epoch uint64, capacity uint16) bool {
	slot := epoch & (window - 1)
	switch tag := c.tags[slot]; {
	case tag == epoch:
		if c.counts[slot] >= capacity {
			return false
		}
		c.counts[slot]++
	case tag < epoch:
		// The slot holds an older epoch: log its count (a straggler
		// reservation may still target it, unless released) and take over.
		if n := c.counts[slot]; n != 0 && tag >= c.floor {
			c.retired = append(c.retired, retiredEpoch{tag, n})
		}
		c.tags[slot] = epoch
		c.counts[slot] = 1
	default:
		// Straggler: epoch fell out of the ring window. Tags only move
		// forward, so its count (if any) lives in the retirement log or
		// the overflow map; fold so the map is authoritative.
		if epoch < c.floor {
			panic("calendar: Reserve below the released floor")
		}
		c.fold()
		n := c.overflow[epoch]
		if n >= capacity {
			return false
		}
		if c.overflow == nil {
			c.overflow = make(map[uint64]uint16)
		}
		c.overflow[epoch] = n + 1
	}
	c.booked++
	return true
}

// fold merges the retirement log into the overflow map. Ring tags only
// move forward, so an epoch is evicted at most once per takeover and the
// merged count is exact.
func (c *Calendar) fold() {
	if len(c.retired) == 0 {
		return
	}
	if c.overflow == nil {
		c.overflow = make(map[uint64]uint16, len(c.retired))
	}
	for _, r := range c.retired {
		c.overflow[r.epoch] += r.count
	}
	c.retired = c.retired[:0]
}

// Release promises that no later Reserve targets an epoch below before
// (Reserve only ever moves forward from the epoch it is given) and drops
// the bookings of every such epoch. Booked is unaffected. Floors only
// rise; a lower one is ignored.
func (c *Calendar) Release(before uint64) {
	if before <= c.floor {
		return
	}
	c.floor = before
	c.retired = slices.DeleteFunc(c.retired, func(r retiredEpoch) bool { return r.epoch < before })
	maps.DeleteFunc(c.overflow, func(epoch uint64, _ uint16) bool { return epoch < before })
}

// Booked returns the total number of reservations made so far, released
// ones included.
func (c *Calendar) Booked() uint64 { return c.booked }

// State is a serializable image of a calendar's bookings, used by the
// checkpoint subsystem. Epochs are sorted ascending so the encoding is
// deterministic.
type State struct {
	Epochs []EpochCount `json:"epochs,omitempty"`
	Booked uint64       `json:"booked"`
}

// EpochCount is one epoch's reservation count.
type EpochCount struct {
	Epoch uint64 `json:"e"`
	Count uint16 `json:"n"`
}

// Export captures every unreleased epoch with a nonzero count plus the
// booked total.
func (c *Calendar) Export() State {
	st := State{Booked: c.booked}
	c.Each(func(epoch uint64, n uint16) {
		st.Epochs = append(st.Epochs, EpochCount{epoch, n})
	})
	slices.SortFunc(st.Epochs, func(a, b EpochCount) int { return cmp.Compare(a.Epoch, b.Epoch) })
	return st
}

// Import resets the calendar to the bookings in st. The ring invariant —
// each slot holds the largest epoch ever claimed there, with its full
// count — is rebuilt by keeping the max epoch per slot in the ring and
// spilling every older epoch to the overflow map, which is exactly the
// state a live calendar converges to. Duplicate epochs in st merge. The
// release floor starts over at zero: st holds nothing below the floor it
// was exported under, and the caller's next Release re-establishes it.
func (c *Calendar) Import(st State) {
	clear(c.tags)
	clear(c.counts)
	c.retired = c.retired[:0]
	c.overflow = nil
	c.floor = 0
	for _, ec := range st.Epochs {
		if ec.Count == 0 {
			continue
		}
		slot := ec.Epoch & (window - 1)
		switch tag := c.tags[slot]; {
		case c.counts[slot] == 0 || tag < ec.Epoch:
			if n := c.counts[slot]; n != 0 {
				c.spill(tag, n)
			}
			c.tags[slot] = ec.Epoch
			c.counts[slot] = ec.Count
		case tag == ec.Epoch:
			c.counts[slot] += ec.Count
		default:
			c.spill(ec.Epoch, ec.Count)
		}
	}
	c.booked = st.Booked
}

func (c *Calendar) spill(epoch uint64, count uint16) {
	if c.overflow == nil {
		c.overflow = make(map[uint64]uint16)
	}
	c.overflow[epoch] += count
}

// Each calls fn for every unreleased epoch with a nonzero reservation
// count, in no particular order. Ring slots and the overflow map are
// disjoint (an epoch maps to exactly one slot, and evicted epochs are
// always older than the slot's current tag), so each epoch is visited
// once. Intended for checkpoints, tests and statistics, not the hot path.
func (c *Calendar) Each(fn func(epoch uint64, count uint16)) {
	c.fold()
	for slot, n := range c.counts {
		if n != 0 && c.tags[slot] >= c.floor {
			fn(c.tags[slot], n)
		}
	}
	for epoch, n := range c.overflow {
		if n != 0 {
			fn(epoch, n)
		}
	}
}

package calendar

import "testing"

// mapCalendar is the reference implementation the ring replaced: a plain
// map from epoch to reservation count.
type mapCalendar struct {
	used   map[uint64]uint16
	booked uint64
}

func (m *mapCalendar) reserve(epoch uint64, capacity uint16) uint64 {
	for {
		if m.used[epoch] < capacity {
			m.used[epoch]++
			m.booked++
			return epoch
		}
		epoch++
	}
}

// lcg is a tiny deterministic generator so the test needs no imports.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r) >> 11
}

// TestMatchesMapSemantics pins the ring to the map's Reserve results on a
// stream whose requests never fall below a slowly advancing base, once
// plain and once with Release(base) interleaved: releasing what the caller
// can no longer reach must change nothing Reserve returns, must leave only
// epochs at or above the floor in Export, and must keep Booked the running
// total.
func TestMatchesMapSemantics(t *testing.T) {
	cases := []struct {
		name     string
		capacity uint16
		span     uint64 // epoch spread of the request stream
	}{
		{"dense", 8, 64},
		{"in-window", 4, window / 2},
		{"straggler", 2, 4 * window}, // exercises the overflow map
		{"capacity-1", 1, window},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ring, released := New(), New()
			ref := &mapCalendar{used: make(map[uint64]uint16)}
			r := lcg(42)
			base := uint64(0)
			for i := 0; i < 20000; i++ {
				// A slowly advancing base with forward jitter models the
				// out-of-order timestamps the schedulers see: requests
				// land anywhere in [base, base+span).
				base += r.next() % 3
				e := base + r.next()%tc.span
				want := ref.reserve(e, tc.capacity)
				if got := ring.Reserve(e, tc.capacity); got != want {
					t.Fatalf("request %d at epoch %d: ring=%d map=%d", i, e, got, want)
				}
				if got := released.Reserve(e, tc.capacity); got != want {
					t.Fatalf("request %d at epoch %d: released ring=%d map=%d", i, e, got, want)
				}
				if i%64 == 0 {
					released.Release(base)
				}
			}
			if ring.Booked() != ref.booked || released.Booked() != ref.booked {
				t.Fatalf("booked: ring=%d released=%d map=%d", ring.Booked(), released.Booked(), ref.booked)
			}

			released.Release(base)
			st := released.Export()
			if st.Booked != ref.booked {
				t.Errorf("exported booked = %d, want the running total %d", st.Booked, ref.booked)
			}
			live := 0
			for e, n := range ref.used {
				if e >= base && n != 0 {
					live++
				}
			}
			if len(st.Epochs) != live {
				t.Errorf("export after Release(%d) holds %d epochs, map has %d at or above it", base, len(st.Epochs), live)
			}
			for _, ec := range st.Epochs {
				if ec.Epoch < base || ec.Count != ref.used[ec.Epoch] {
					t.Fatalf("export after Release(%d) holds epoch %d x%d, map has x%d", base, ec.Epoch, ec.Count, ref.used[ec.Epoch])
				}
			}
			if full := len(ring.Export().Epochs); full <= len(st.Epochs) {
				t.Errorf("unreleased export holds %d epochs, released %d: nothing was dropped", full, len(st.Epochs))
			}
		})
	}
}

// TestExportImportRoundTrip checks that a calendar restored from Export
// keeps answering Reserve exactly like the original (and like the map
// reference) on a shared continuation stream, whether or not the original
// released its past before exporting. This is the property the checkpoint
// subsystem depends on: restore must be behaviorally, not just
// structurally, identical.
func TestExportImportRoundTrip(t *testing.T) {
	for _, span := range []uint64{64, window / 2, 4 * window} {
		for _, release := range []bool{false, true} {
			orig := New()
			ref := &mapCalendar{used: make(map[uint64]uint16)}
			r := lcg(7)
			base := uint64(0)
			step := func(c *Calendar) {
				base += r.next() % 3
				e := base + r.next()%span
				got := c.Reserve(e, 4)
				want := ref.reserve(e, 4)
				if got != want {
					t.Fatalf("span %d, release %v: ring=%d map=%d", span, release, got, want)
				}
			}
			for i := 0; i < 5000; i++ {
				step(orig)
			}
			if release {
				orig.Release(base)
			}
			restored := New()
			restored.Import(orig.Export())
			if restored.Booked() != orig.Booked() {
				t.Fatalf("span %d: booked %d != %d after restore", span, restored.Booked(), orig.Booked())
			}
			for i := 0; i < 5000; i++ {
				step(restored)
			}
		}
	}
}

// TestExportDeterministic checks two exports of identical calendars are
// equal element-wise (sorted order, no map-iteration leakage).
func TestExportDeterministic(t *testing.T) {
	build := func() *Calendar {
		c := New()
		r := lcg(11)
		for i := 0; i < 3000; i++ {
			c.Reserve(r.next()%(3*window), 2)
		}
		return c
	}
	a, b := build().Export(), build().Export()
	if a.Booked != b.Booked || len(a.Epochs) != len(b.Epochs) {
		t.Fatalf("export shape mismatch: %d/%d vs %d/%d", a.Booked, len(a.Epochs), b.Booked, len(b.Epochs))
	}
	for i := range a.Epochs {
		if a.Epochs[i] != b.Epochs[i] {
			t.Fatalf("epoch %d: %+v vs %+v", i, a.Epochs[i], b.Epochs[i])
		}
	}
}

func BenchmarkReserve(b *testing.B) {
	c := New()
	for i := 0; i < b.N; i++ {
		c.Reserve(uint64(i)/4, 8)
	}
}

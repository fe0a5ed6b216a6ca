package mem

// Sub returns s - o field-wise: the hierarchy activity that happened
// after the boundary snapshot o was taken. Every counter in Stats is
// monotonic over a run, so the subtraction never wraps when o is an
// earlier snapshot of the same run — the only way cpu.Result.Sub, its
// caller for sampled windows and trace intervals, uses it.
func (s Stats) Sub(o Stats) Stats {
	d := s
	for i := range d.Accesses {
		d.Accesses[i] -= o.Accesses[i]
		d.DRAMAccesses[i] -= o.DRAMAccesses[i]
		d.PrefIssued[i] -= o.PrefIssued[i]
		d.PrefDropped[i] -= o.PrefDropped[i]
		d.PrefLate[i] -= o.PrefLate[i]
		d.PrefUnusedEvict[i] -= o.PrefUnusedEvict[i]
	}
	for i := range d.DemandHits {
		d.DemandHits[i] -= o.DemandHits[i]
		d.PrefUsefulAt[i] -= o.PrefUsefulAt[i]
	}
	d.DemandMerged -= o.DemandMerged
	d.Writebacks -= o.Writebacks
	d.MSHRBusyCycles -= o.MSHRBusyCycles
	d.DemandMissCycles -= o.DemandMissCycles
	return d
}

// AddScaled accumulates f*o into s with per-field round-to-nearest: the
// phase-weighted combination step of the sampled-simulation extrapolator.
func (s *Stats) AddScaled(o Stats, f float64) {
	sc := func(v uint64) uint64 { return uint64(float64(v)*f + 0.5) }
	for i := range s.Accesses {
		s.Accesses[i] += sc(o.Accesses[i])
		s.DRAMAccesses[i] += sc(o.DRAMAccesses[i])
		s.PrefIssued[i] += sc(o.PrefIssued[i])
		s.PrefDropped[i] += sc(o.PrefDropped[i])
		s.PrefLate[i] += sc(o.PrefLate[i])
		s.PrefUnusedEvict[i] += sc(o.PrefUnusedEvict[i])
	}
	for i := range s.DemandHits {
		s.DemandHits[i] += sc(o.DemandHits[i])
		s.PrefUsefulAt[i] += sc(o.PrefUsefulAt[i])
	}
	s.DemandMerged += sc(o.DemandMerged)
	s.Writebacks += sc(o.Writebacks)
	s.MSHRBusyCycles += sc(o.MSHRBusyCycles)
	s.DemandMissCycles += sc(o.DemandMissCycles)
}

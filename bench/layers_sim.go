package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"dvr/internal/bpred"
	"dvr/internal/calendar"
	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/interp"
	"dvr/internal/mem"
)

// Layer probes of the simulator: each times one module through its exported
// API, outside the core loop, so a per-call host cost can be set beside the
// core's ns/instruction. They run in traced runs only.

// sampledErrGatePct fails a matrix-sampled run whose projection is further
// than this from the exact matrix of the same inputs.
const sampledErrGatePct = 3.0

// techLayer maps a technique to the module prefix of its per-layer rows.
var techLayer = map[experiments.Technique]string{
	experiments.TechPRE:    "runahead.pre",
	experiments.TechVR:     "runahead.vr",
	experiments.TechDVR:    "runahead.dvr",
	experiments.TechIMP:    "prefetch.imp",
	experiments.TechOracle: "prefetch.oracle",
}

// tracedCells re-runs every cell of the matrix one at a time, each under a
// span and a pair of MemStats reads, so host time and allocations are
// attributable to one technique without a neighbour on the other core. It
// checks each result against the untraced matrix and returns the summed
// host time.
func (r *run) tracedCells(ctx context.Context, s *builtSuite, roi uint64, want matrix) (int64, error) {
	type acc struct {
		hostNS  int64
		insts   uint64
		mallocs uint64
		useful  uint64
		issued  uint64
	}
	per := make(map[experiments.Technique]*acc)
	var insts, cycles uint64
	cfg := cpu.DefaultConfig()
	root := r.spans.start("matrix.sequential", nil)
	for _, spec := range s.specs {
		for _, tech := range figTechs {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			sp := r.spans.start("cell."+string(tech), root)
			res, err := experiments.RunE(ctx, spec, tech, cfg)
			sp.end()
			runtime.ReadMemStats(&m1)
			if err != nil {
				root.end()
				return 0, err
			}
			r.attempt(1)
			if !reflect.DeepEqual(res.Canonical(), want[spec.Name][tech].Canonical()) {
				r.failf("%s/%s: traced cell differs from the untraced matrix", spec.Name, tech)
			}
			a := per[tech]
			if a == nil {
				a = &acc{}
				per[tech] = a
			}
			a.hostNS += res.HostNS
			a.insts += res.Instructions
			a.mallocs += m1.Mallocs - m0.Mallocs
			a.useful += res.Mem.TotalPrefUseful()
			a.issued += res.Mem.TotalPrefIssued()
			insts += res.Instructions
			cycles += res.Cycles
		}
	}
	root.end()

	ooo := per[experiments.TechOoO]
	n := len(s.specs)
	r.setLayer("cpu.ooo_ns_per_inst", float64(ooo.hostNS)/float64(ooo.insts), n)
	r.setLayer("cpu.allocs_per_inst", float64(ooo.mallocs)/float64(ooo.insts), n)
	r.setLayer("cpu.sim_insts", float64(insts), n*len(figTechs))
	r.setLayer("cpu.sim_cycles", float64(cycles), n*len(figTechs))
	var total int64
	for tech, a := range per {
		total += a.hostNS
		prefix, ok := techLayer[tech]
		if !ok {
			continue
		}
		r.setLayer(prefix+".host_ratio", float64(a.hostNS)/float64(ooo.hostNS), n)
		r.setLayer(prefix+".allocs_per_inst", float64(a.mallocs)/float64(a.insts), n)
		if tech == experiments.TechDVR || tech == experiments.TechIMP {
			ratio := 0.0
			if a.issued > 0 {
				ratio = float64(a.useful) / float64(a.issued)
			}
			r.setLayer(prefix+".useful_ratio", ratio, n)
		}
	}
	return total, nil
}

// recorded is the dynamic stream of a few kernels, as interp.RunWith saw it.
type recorded struct {
	insts    uint64
	addrs    []uint64 // effective address <<1 | isStore, one per load/store
	pcs      []int    // PC of each load/store (the stride prefetcher keys on it)
	branches []uint64 // PC <<1 | taken
}

// record runs probeInsts instructions of every kernel functionally and
// keeps their memory and branch events; it also times the run, which is the
// interp.step_ns probe (the callback's appends are part of that cost, as
// they are of sampling's own profile pass).
func (r *run) record(s *builtSuite) (recorded, float64) {
	var rec recorded
	var ns int64
	for _, spec := range s.specs {
		fe := s.bases[spec.Name].Fork().Frontend()
		t0 := time.Now()
		n := fe.RunWith(r.sz.probeInsts, func(di interp.DynInst) {
			op := di.Inst.Op
			switch {
			case op.IsLoad():
				rec.addrs = append(rec.addrs, di.Addr<<1)
				rec.pcs = append(rec.pcs, di.PC)
			case op.IsStore():
				rec.addrs = append(rec.addrs, di.Addr<<1|1)
				rec.pcs = append(rec.pcs, di.PC)
			case op.IsBranch():
				ev := uint64(di.PC) << 1
				if di.Taken {
					ev |= 1
				}
				rec.branches = append(rec.branches, ev)
			}
		})
		ns += time.Since(t0).Nanoseconds()
		rec.insts += n
	}
	return rec, float64(ns) / float64(rec.insts)
}

// perCall times fn, which performs n calls, reps times and returns the
// median nanoseconds per call.
func perCall(reps, n int, fn func()) float64 {
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(xs)
}

// levelProbe times demand accesses that are all satisfied at one level of
// the hierarchy. Each level gets a working set of distinct lines swept
// cyclically: it overflows every cache above the target (so LRU evicts each
// line before its reuse) and fits in the target. The stride prefetcher is
// off, or sweeps would be prefetched into L1. It reports ns per access and
// fails the run if the accesses did not land where intended.
func (r *run) levelProbe(name string, target mem.Level, lines int, cfg mem.Config) {
	cfg.StrideEnabled = false
	h := mem.NewHierarchy(cfg)
	now := uint64(0)
	sweep := func(count bool) (hit, total int) {
		for i := 0; i < lines; i++ {
			res := h.Access(uint64(i)*mem.LineSize, now, false, 0)
			// Serialise: the next access starts once this one is done,
			// so MSHRs never fill and every access takes the plain path.
			now = res.Done + 1
			if count {
				total++
				if res.Level == target && !res.Merged {
					hit++
				}
			}
		}
		return
	}
	if target != mem.LvlMem {
		sweep(false) // first touch brings the set on chip
	}
	hit, total := sweep(true)
	r.attempt(1)
	if float64(hit) < 0.95*float64(total) {
		r.failf("%s: %d of %d probe accesses were satisfied at %s", name, hit, total, target)
	}
	passes := 1 + 200_000/lines
	if target == mem.LvlMem {
		// A DRAM access must find its line nowhere on chip: every pass
		// walks fresh addresses.
		base := uint64(lines)
		ns := perCall(3, passes*lines, func() {
			for i := 0; i < passes*lines; i++ {
				res := h.Access((base+uint64(i))*mem.LineSize, now, false, 0)
				now = res.Done + 1
			}
			base += uint64(passes * lines)
		})
		r.setLayer(name, ns, 3*passes*lines)
		return
	}
	ns := perCall(3, passes*lines, func() {
		for p := 0; p < passes; p++ {
			sweep(false)
		}
	})
	r.setLayer(name, ns, 3*passes*lines)
}

// simulatorProbes times interp, mem, bpred and calendar through their
// exported APIs and derives the core's own share of an OoO instruction.
func (r *run) simulatorProbes(ctx context.Context, s *builtSuite) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sp := r.spans.start("probes.simulator", nil)
	defer sp.end()
	cfg := cpu.DefaultConfig()

	rec, stepNS := r.record(s)
	r.setLayer("interp.step_ns", stepNS, int(rec.insts))

	var forkUS, cloneUS []float64
	for _, spec := range s.specs {
		base := s.bases[spec.Name]
		for i := 0; i < 20; i++ {
			t0 := time.Now()
			w := base.Fork()
			forkUS = append(forkUS, float64(time.Since(t0).Nanoseconds())/1e3)
			if i == 0 {
				fe := w.Frontend()
				for j := 0; j < 20; j++ {
					t1 := time.Now()
					_ = fe.Clone()
					cloneUS = append(cloneUS, float64(time.Since(t1).Nanoseconds())/1e3)
				}
			}
		}
	}
	r.setLayer("workloads.fork_us", median(forkUS), len(forkUS))
	r.setLayer("interp.clone_us", median(cloneUS), len(cloneUS))

	// Per-level access cost on synthetic working sets.
	l1 := cfg.Mem.L1D.SizeBytes / mem.LineSize
	l2 := cfg.Mem.L2.SizeBytes / mem.LineSize
	l3 := cfg.Mem.L3.SizeBytes / mem.LineSize
	r.levelProbe("mem.access_l1_ns", mem.LvlL1, l1/2, cfg.Mem)
	r.levelProbe("mem.access_l2_ns", mem.LvlL2, geomean(l1, l2), cfg.Mem)
	r.levelProbe("mem.access_l3_ns", mem.LvlL3, geomean(l2, l3), cfg.Mem)
	r.levelProbe("mem.access_dram_ns", mem.LvlMem, 4096, cfg.Mem)

	// The recorded stream through a fresh hierarchy: the mix the core sees.
	h := mem.NewHierarchy(cfg.Mem)
	now := uint64(0)
	t0 := time.Now()
	for i, ev := range rec.addrs {
		res := h.Access(ev>>1, now, ev&1 == 1, rec.pcs[i])
		now = res.Done + 1
	}
	mixNS := float64(time.Since(t0).Nanoseconds()) / float64(len(rec.addrs))
	var demand uint64
	for _, v := range h.Stats.DemandHits {
		demand += v
	}
	demand += h.Stats.DemandMerged
	r.setLayer("mem.accesses_per_inst", float64(len(rec.addrs))/float64(rec.insts), int(rec.insts))
	r.setLayer("mem.l1_hit_ratio", float64(h.Stats.DemandHits[mem.LvlL1])/float64(demand), int(demand))

	// Prefetches of lines not on chip, issued far enough apart that none
	// is dropped for MSHR pressure.
	hp := mem.NewHierarchy(cfg.Mem)
	const prefN = 100_000
	next := uint64(1 << 30)
	pnow := uint64(0)
	r.setLayer("mem.prefetch_ns", perCall(3, prefN, func() {
		for i := 0; i < prefN; i++ {
			res := hp.Prefetch(next, pnow, mem.SrcRunahead)
			next += mem.LineSize
			pnow = res.Done + 1
		}
	}), 3*prefN)

	// Branch stream through a fresh predictor.
	bp := bpred.New(cfg.Bpred)
	t1 := time.Now()
	for _, ev := range rec.branches {
		bp.Update(ev>>1, ev&1 == 1)
	}
	bpNS := float64(time.Since(t1).Nanoseconds()) / float64(len(rec.branches))
	r.setLayer("bpred.predict_update_ns", bpNS, len(rec.branches))
	r.setLayer("bpred.mispredict_ratio", bp.MispredictRate(), len(rec.branches))

	// Issue-port calendar: one reservation per instruction at the width.
	cal := calendar.New()
	const calN = 1_000_000
	epoch := uint64(0)
	r.setLayer("calendar.reserve_ns", perCall(3, calN, func() {
		for i := 0; i < calN; i++ {
			epoch = cal.Reserve(epoch, uint16(cfg.Width))
		}
	}), 3*calN)

	// What is left of an OoO instruction once the probed modules' shares
	// are taken out is the core's own bookkeeping.
	ooo := r.layer["cpu.ooo_ns_per_inst"].Value
	memShare := mixNS * float64(len(rec.addrs)) / float64(rec.insts)
	bpShare := bpNS * float64(len(rec.branches)) / float64(rec.insts)
	r.setLayer("cpu.self_ns_per_inst", ooo-stepNS-memShare-bpShare, int(rec.insts))
	return nil
}

func geomean(a, b int) int { return int(math.Sqrt(float64(a) * float64(b))) }

// warmProbes times the functional warming calls sampling makes between
// timed windows, on a recorded stream.
func (r *run) warmProbes(s *builtSuite) error {
	sp := r.spans.start("probes.warm", nil)
	defer sp.end()
	cfg := cpu.DefaultConfig()
	rec, stepNS := r.record(s)
	r.setLayer("interp.step_ns", stepNS, int(rec.insts))
	if len(rec.addrs) == 0 || len(rec.branches) == 0 {
		return fmt.Errorf("recorded stream is empty")
	}
	h := mem.NewHierarchy(cfg.Mem)
	r.setLayer("mem.warm_ns", perCall(3, len(rec.addrs), func() {
		for _, ev := range rec.addrs {
			h.Warm(ev>>1, ev&1 == 1)
		}
	}), 3*len(rec.addrs))
	bp := bpred.New(cfg.Bpred)
	r.setLayer("bpred.warm_ns", perCall(3, len(rec.branches), func() {
		for _, ev := range rec.branches {
			bp.Warm(ev>>1, ev&1 == 1)
		}
	}), 3*len(rec.branches))
	return nil
}

// samplingLayer splits a sampled matrix into its plan (profile, cluster,
// boundary capture) and replay halves, and judges the projection against
// the exact matrix of the same inputs.
func (r *run) samplingLayer(ctx context.Context, s *builtSuite, first matrixRep) error {
	cfg := cpu.DefaultConfig()
	// RunSampled builds a plan and replays one technique; its result's
	// HostNS covers the replay only, so the rest of the call is the plan.
	var planS float64
	root := r.spans.start("sampling.sequential", nil)
	for _, spec := range s.specs {
		sp := r.spans.start("experiments.RunSampled", root)
		t0 := time.Now()
		res, err := experiments.RunSampled(ctx, spec, experiments.TechOoO, cfg, experiments.SampleOptions{})
		total := time.Since(t0)
		sp.end()
		if err != nil {
			root.end()
			return err
		}
		r.attempt(1)
		if !reflect.DeepEqual(res.Canonical(), first.m[spec.Name][experiments.TechOoO].Canonical()) {
			r.failf("%s/ooo: lone sampled run differs from the matrix cell", spec.Name)
		}
		planS += (total - time.Duration(res.HostNS)).Seconds()
	}
	root.end()
	r.setLayer("sampling.plan_s", planS, len(s.specs))
	r.setLayer("sampling.replay_s", float64(first.hostNS)/1e9, len(s.specs)*len(figTechs))

	var timed, profiled uint64
	var phases float64
	cells := 0
	for _, row := range first.m {
		for _, res := range row {
			if res.Sampled == nil {
				continue
			}
			timed += res.Sampled.SimulatedInsts
			profiled += res.Sampled.ProfiledInsts
			phases += float64(res.Sampled.Phases)
			cells++
		}
	}
	if cells > 0 && profiled > 0 {
		r.setLayer("sampling.timed_frac", float64(timed)/float64(profiled), cells)
		r.setLayer("sampling.phases", phases/float64(cells), cells)
	}

	// Fidelity: mean per-technique h-mean speed-up error against the exact
	// matrix, outside every timed figure.
	sp := r.spans.start("experiments.matrix.exact-reference", nil)
	exact, err := exactMatrix(ctx, s.specs)
	sp.end()
	if err != nil {
		return err
	}
	var sum float64
	for _, tech := range experiments.AllTechniques {
		he, hs := hmeanSpeedup(s.specs, exact, tech), hmeanSpeedup(s.specs, first.m, tech)
		sum += math.Abs(hs-he) / he
	}
	errPct := 100 * sum / float64(len(experiments.AllTechniques))
	r.setLayer("sampled_err_pct", errPct, len(experiments.AllTechniques))
	r.attempt(1)
	// The repository's own fidelity gate (dvrbench fidelity) is 2% on the
	// one graph it was tuned on; over seeds it never saw the error reaches
	// about 1.7%, so arbitrary seeds get a point of margin. -smoke's tiny
	// ROI is outside what the projection promises at all.
	if !r.o.smoke && errPct > sampledErrGatePct {
		r.failf("sampled projection is %.2f%% off the exact matrix (gate: %g%%)", errPct, sampledErrGatePct)
	}
	return nil
}

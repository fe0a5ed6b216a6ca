package sampling

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"dvr/internal/bpred"
	"dvr/internal/cpu"
	"dvr/internal/graphgen"
	"dvr/internal/interp"
	"dvr/internal/mem"
	"dvr/internal/workloads"
)

func testSpec(t *testing.T, roi uint64) workloads.Spec {
	t.Helper()
	g := graphgen.Kronecker(12, 8, 7)
	return workloads.Spec{
		Name:  "bfs_t",
		Build: func() *workloads.Workload { return workloads.BFS(g) },
		ROI:   roi,
	}
}

func TestKmeansSeparatesObviousClusters(t *testing.T) {
	pts := [][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1},
		{10, 10}, {10.1, 10}, {10, 10.1},
	}
	assign := kmeans(pts, 2, kmeansMaxIter)
	if assign[0] != assign[1] || assign[1] != assign[2] {
		t.Errorf("low cluster split: %v", assign)
	}
	if assign[3] != assign[4] || assign[4] != assign[5] {
		t.Errorf("high cluster split: %v", assign)
	}
	if assign[0] == assign[3] {
		t.Errorf("clusters merged: %v", assign)
	}
}

func TestKmeansDeterministic(t *testing.T) {
	pts := make([][]float64, 40)
	for i := range pts {
		pts[i] = []float64{float64(i % 7), float64((i * i) % 5), float64(i % 3)}
	}
	a := kmeans(pts, 5, kmeansMaxIter)
	for trial := 0; trial < 3; trial++ {
		b := kmeans(pts, 5, kmeansMaxIter)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: assignment diverged at %d: %d vs %d", trial, i, a[i], b[i])
			}
		}
	}
}

func TestKmeansDegenerate(t *testing.T) {
	same := [][]float64{{1, 2}, {1, 2}, {1, 2}}
	for _, a := range kmeans(same, 3, kmeansMaxIter) {
		if a != 0 {
			t.Errorf("identical points split across clusters")
		}
	}
	if got := kmeans(nil, 4, kmeansMaxIter); len(got) != 0 {
		t.Errorf("empty input: %v", got)
	}
	one := kmeans([][]float64{{3}}, 8, kmeansMaxIter)
	if len(one) != 1 || one[0] != 0 {
		t.Errorf("single point: %v", one)
	}
}

// Windows must tile the functional stream exactly: contiguous starts, all
// full-length except possibly the last, totals matching the pass.
func TestProfileWindowsTile(t *testing.T) {
	sp := testSpec(t, 10_500) // deliberately not a multiple of the window
	const winLen = 1_000
	wins, tot, _ := profile(sp.Build(), sp.ROI, winLen)
	if tot.insts != sp.ROI {
		t.Fatalf("profiled %d insts, want ROI %d", tot.insts, sp.ROI)
	}
	var sum uint64
	for i, w := range wins {
		if w.start != sum {
			t.Errorf("window %d starts at %d, want %d", i, w.start, sum)
		}
		if i < len(wins)-1 && w.insts != winLen {
			t.Errorf("window %d has %d insts, want %d", i, w.insts, winLen)
		}
		if w.insts == 0 {
			t.Errorf("window %d is empty", i)
		}
		if got := w.loads + w.stores + w.branches; got > w.insts {
			t.Errorf("window %d op counts %d exceed insts %d", i, got, w.insts)
		}
		sum += w.insts
	}
	if sum != tot.insts {
		t.Errorf("windows cover %d insts, pass executed %d", sum, tot.insts)
	}
	if want := (sp.ROI + winLen - 1) / winLen; uint64(len(wins)) != want {
		t.Errorf("%d windows, want %d", len(wins), want)
	}
	if last := wins[len(wins)-1]; last.insts != sp.ROI%winLen {
		t.Errorf("final partial window has %d insts, want %d", last.insts, sp.ROI%winLen)
	}
}

// The profile pass looks code buckets up in a per-PC table and tracks
// first-touch lines in per-page bitmaps; its signatures must be bit for bit
// what hashing every dynamic PC and keeping a set of line addresses gives.
func TestProfileSignaturesMatchReference(t *testing.T) {
	for name, sp := range map[string]workloads.Spec{
		"bfs_t":    testSpec(t, 30_500),
		"kangaroo": {Name: "kangaroo", Build: workloads.Kangaroo, ROI: 30_500},
	} {
		const winLen = 1_000
		base := sp.Build()
		wins, _, _ := profile(base, sp.ROI, winLen)

		it := base.Fork().Frontend()
		seen := make(map[uint64]struct{})
		for i, w := range wins {
			counts := make([]float64, 2*sigDim)
			var ft, acc float64
			it.RunWith(w.insts, func(di interp.DynInst) {
				counts[bbvBucket(di.PC)]++
				if di.Inst.Op.IsMem() {
					counts[sigDim+mavBucket(di.Addr>>pageShift)]++
					acc++
					if _, ok := seen[di.Addr/mem.LineSize]; !ok {
						seen[di.Addr/mem.LineSize] = struct{}{}
						ft++
					}
				}
			})
			want := normalizeSig(counts)
			if acc > 0 {
				want = append(want, ft/acc)
			} else {
				want = append(want, 0)
			}
			if !reflect.DeepEqual(w.sig, want) {
				t.Fatalf("%s: window %d signature differs from the reference", name, i)
			}
		}
	}
}

func TestNormalizeSigHalves(t *testing.T) {
	counts := make([]float64, 2*sigDim)
	counts[3] = 3
	counts[7] = 1
	counts[sigDim+2] = 8
	sig := normalizeSig(counts)
	var code, memv float64
	for i := 0; i < sigDim; i++ {
		code += sig[i]
		memv += sig[sigDim+i]
	}
	if math.Abs(code-1) > 1e-12 || math.Abs(memv-1) > 1e-12 {
		t.Errorf("halves not L1-normalized: code=%v mem=%v", code, memv)
	}
	if sig[3] != 0.75 || sig[7] != 0.25 || sig[sigDim+2] != 1 {
		t.Errorf("unexpected normalized values: %v %v %v", sig[3], sig[7], sig[sigDim+2])
	}
}

// project builds the plan of base's first roi instructions under the
// default config and replays it for the OoO baseline.
func project(base *workloads.Workload, roi uint64, opts Options) (cpu.Result, error) {
	p, err := NewPlan(base, roi, cpu.DefaultConfig(), opts)
	if err != nil {
		return cpu.Result{}, err
	}
	return p.Replay(context.Background(), noEngine)
}

// Two sampled runs of the same workload/config/options must be
// byte-identical after Canonical — the determinism contract callers
// (cache keys, CI) rely on.
func TestRunDeterministic(t *testing.T) {
	sp := testSpec(t, 20_000)
	opts := Options{WindowInsts: 2_000, Replicates: 2}
	run := func() []byte {
		res, err := project(sp.Build(), sp.ROI, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Errorf("sampled runs diverged:\n%s\n%s", a, b)
	}
}

// A sampled projection of the OoO baseline should land near the exact
// run: same architectural totals, IPC within a loose tolerance (the tight
// 2% gate lives in dvrbench fidelity over the real quick suite).
func TestRunProjectionNearExact(t *testing.T) {
	sp := testSpec(t, 30_000)
	cfg := cpu.DefaultConfig()

	base := sp.Build()
	wk := base.Fork()
	core := cpu.NewCore(cfg, wk.Frontend())
	exact, err := core.RunContext(context.Background(), sp.ROI)
	if err != nil {
		t.Fatal(err)
	}

	res, err := project(base, sp.ROI, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampled == nil {
		t.Fatal("projection carries no provenance")
	}
	if res.Instructions != exact.Instructions || res.Loads != exact.Loads ||
		res.Stores != exact.Stores || res.Branches != exact.Branches {
		t.Errorf("architectural totals differ: sampled {i=%d l=%d s=%d b=%d} exact {i=%d l=%d s=%d b=%d}",
			res.Instructions, res.Loads, res.Stores, res.Branches,
			exact.Instructions, exact.Loads, exact.Stores, exact.Branches)
	}
	if rel := math.Abs(res.IPC()-exact.IPC()) / exact.IPC(); rel > 0.15 {
		t.Errorf("projected IPC %.4f vs exact %.4f (%.1f%% off)", res.IPC(), exact.IPC(), rel*100)
	}
	p := res.Sampled
	if p.SimulatedInsts >= sp.ROI {
		t.Errorf("simulated %d insts, no saving over ROI %d", p.SimulatedInsts, sp.ROI)
	}
	if p.ProfiledInsts != sp.ROI {
		t.Errorf("profiled %d, want %d", p.ProfiledInsts, sp.ROI)
	}
	if p.Phases < 1 || p.Phases > 8 || len(p.PhaseWeights) != p.Phases {
		t.Errorf("phases=%d weights=%v", p.Phases, p.PhaseWeights)
	}
	var wsum float64
	for _, w := range p.PhaseWeights {
		wsum += w
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Errorf("phase weights sum to %v", wsum)
	}
}

func TestRunRequiresROI(t *testing.T) {
	sp := testSpec(t, 10_000)
	if _, err := NewPlan(sp.Build(), 0, cpu.DefaultConfig(), Options{}); err == nil {
		t.Fatal("a zero ROI accepted")
	}
}

func noEngine(_ *interp.Interp, _ *workloads.Workload, _ *mem.Hierarchy) (cpu.Engine, error) {
	return nil, nil
}

// planROI is the ROI of every plan the state tests build.
const planROI = 60_000

// twoKernels are the plans the state tests run on: a graph kernel and an
// hpc-db kernel whose inner loops both take unconditional branches (the
// ones functional warming trains on and the core does not), with two
// replicates per phase so that segments both follow each other directly
// and sit far apart.
func twoKernels(t *testing.T, cfg cpu.Config) map[string]*Plan {
	t.Helper()
	g := graphgen.Kronecker(12, 8, 7)
	specs := []workloads.Spec{
		{Name: "cc_t", Build: func() *workloads.Workload { return workloads.CC(g) }, ROI: planROI},
		{Name: "kangaroo", Build: workloads.Kangaroo, ROI: planROI},
	}
	plans := make(map[string]*Plan)
	for _, sp := range specs {
		p, err := NewPlan(sp.Build(), sp.ROI, cfg, Options{WindowInsts: 2_000, Replicates: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.segs) < 4 {
			t.Fatalf("%s: only %d segments, the test wants several", sp.Name, len(p.segs))
		}
		plans[sp.Name] = p
	}
	return plans
}

// The state a replay restores at each segment start must be the state the
// replay's own predictor used to reach there: every branch of the windows
// between segments through Warm, and the timed windows through the core
// itself (which trains on conditional branches only and counts them).
func TestPlanPredictorStatesMatchPerReplayWarm(t *testing.T) {
	cfg := cpu.DefaultConfig()
	for name, p := range twoKernels(t, cfg) {
		it := p.base.Fork().Frontend()
		ref := bpred.New(cfg.Bpred)
		h := mem.NewHierarchy(cfg.Mem)
		pos := 0
		for k := range p.segs {
			s := &p.segs[k]
			for j := pos; j < s.start; j++ {
				it.RunWith(p.wins[j].insts, func(di interp.DynInst) {
					if di.Inst.Op.IsBranch() {
						ref.Warm(uint64(di.PC), di.Taken)
					}
				})
			}
			if got, want := s.bp, ref.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: segment %d (window %d): restored predictor state differs from the per-replay one (ghist %x vs %x, lookups %d vs %d)",
					name, k, s.start, got.GHist, want.GHist, got.Lookups, want.Lookups)
			}
			if _, _, err := p.runSegment(context.Background(), noEngine, h, ref, s); err != nil {
				t.Fatal(err)
			}
			for j := s.start; j <= s.bwin; j++ {
				it.Run(p.wins[j].insts)
			}
			pos = s.bwin + 1
		}
	}
}

// wayRecBytes is the packed way record of mem.CacheSnapshot.Ways: uint32
// way, uint64 line, uint64 lastUse, one flag byte.
const wayRecBytes = 21

// recencyOrder returns a level's occupied ways with the clock values
// dropped (way, line and flags only), in ascending order of last use.
func recencyOrder(t *testing.T, ways []byte) [][wayRecBytes - 8]byte {
	t.Helper()
	if len(ways)%wayRecBytes != 0 {
		t.Fatalf("%d bytes of ways", len(ways))
	}
	type rec struct {
		lastUse uint64
		id      [wayRecBytes - 8]byte
	}
	var order []rec
	for ; len(ways) > 0; ways = ways[wayRecBytes:] {
		r := rec{lastUse: binary.LittleEndian.Uint64(ways[12:])}
		copy(r.id[:12], ways[:12])
		r.id[12] = ways[20]
		order = append(order, r)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].lastUse < order[j].lastUse })
	out := make([][wayRecBytes - 8]byte, len(order))
	for i, r := range order {
		out[i] = r.id
	}
	return out
}

// The cache state a replay restores at a segment start must be what a
// fresh hierarchy holds after functionally warming every load and store
// the program commits before that segment, one Warm per access with no
// deduplication: L2 and L3 byte for byte (a dropped duplicate is an L1 hit
// and never reaches them), the L1-D line for line, flag for flag and in the
// same recency order (its clock ticks once per Warm, so only the absolute
// values may differ). A segment that directly follows the previous timed
// one has no state of its own, and those states are all the plan keeps of
// the memory stream: at most one state per segment, no recorded events
// (the stream record NewPlan walks is not reachable from a Plan).
func TestPlanCacheStatesMatchFunctionalWarm(t *testing.T) {
	cfg := cpu.DefaultConfig()
	if reaches(reflect.TypeOf(Plan{}), reflect.TypeOf(stream{}), map[reflect.Type]bool{}) {
		t.Error("a Plan can keep a stream record")
	}
	for name, p := range twoKernels(t, cfg) {
		it := p.base.Fork().Frontend()
		ref := mem.NewHierarchy(cfg.Mem)
		next, pos, gaps := 0, 0, 0
		for k, s := range p.segs {
			for ; next < s.start; next++ {
				it.RunWith(p.wins[next].insts, func(di interp.DynInst) {
					if op := di.Inst.Op; op.IsMem() {
						ref.Warm(di.Addr, op.IsStore())
					}
				})
			}
			adjacent := s.start == pos
			pos = s.bwin + 1
			if adjacent {
				if s.caches != nil {
					t.Errorf("%s: segment %d (window %d) directly follows timed window %d but has a cache state", name, k, s.start, s.start-1)
				}
				continue
			}
			gaps++
			if s.caches == nil {
				t.Fatalf("%s: segment %d (window %d) follows a gap but has no cache state", name, k, s.start)
			}
			got := mem.NewHierarchy(cfg.Mem)
			if err := got.ImportCaches(s.caches); err != nil {
				t.Fatal(err)
			}
			g, w := got.Snapshot(), ref.Snapshot()
			if !reflect.DeepEqual(g.L2, w.L2) || !reflect.DeepEqual(g.L3, w.L3) {
				t.Errorf("%s: segment %d (window %d): L2/L3 differ from a functional warm of the whole prefix", name, k, s.start)
			}
			if len(w.L1D.Ways) == 0 || !reflect.DeepEqual(recencyOrder(t, g.L1D.Ways), recencyOrder(t, w.L1D.Ways)) {
				t.Errorf("%s: segment %d (window %d): L1-D contents or recency order differ from a functional warm of the whole prefix", name, k, s.start)
			}
		}
		if gaps == 0 || gaps == len(p.segs) {
			t.Errorf("%s: %d of %d segments follow a gap; the test wants both kinds", name, gaps, len(p.segs))
		}
	}
}

// reaches reports whether a value of type t can hold a value of type want,
// through fields, elements, pointers or (conservatively) an interface or a
// closure. It follows this package's types and the containers around
// them; other packages' types cannot name a sampling type.
func reaches(t, want reflect.Type, seen map[reflect.Type]bool) bool {
	if t == want {
		return true
	}
	if seen[t] || t.Name() != "" && t.PkgPath() != want.PkgPath() {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
		return reaches(t.Elem(), want, seen)
	case reflect.Map:
		return reaches(t.Key(), want, seen) || reaches(t.Elem(), want, seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if reaches(t.Field(i).Type, want, seen) {
				return true
			}
		}
	case reflect.Interface, reflect.Func:
		return true
	}
	return false
}

// The boundary a segment forks must be the architectural state a fresh
// functional run reaches at that window start: the registers, the dynamic
// instruction number, and every memory word the program stores to, from
// the skip to the end of the ROI (so a store the walk applied after a
// boundary froze would show through it). nas-is joins the two kernels for
// a store log of one store in twenty instructions.
func TestPlanBoundariesMatchFunctionalRun(t *testing.T) {
	cfg := cpu.DefaultConfig()
	plans := twoKernels(t, cfg)
	p, err := NewPlan(workloads.NASIS(), planROI, cfg, Options{WindowInsts: 2_000, Replicates: 2})
	if err != nil {
		t.Fatal(err)
	}
	plans["nas-is"] = p
	storing := 0
	for name, p := range plans {
		// Every word the program stores to through the end of the ROI.
		var stored []uint64
		wk := p.base.Fork()
		all := interp.New(wk.Prog, wk.Mem)
		all.RunWith(wk.Skip+planROI, func(di interp.DynInst) {
			if di.Inst.Op.IsStore() {
				stored = append(stored, di.Addr)
			}
		})
		if len(stored) > 0 {
			storing++
		}

		ref := p.base.Fork().Frontend()
		next := 0
		for _, s := range p.segs {
			for ; next < s.start; next++ {
				ref.Run(p.wins[next].insts)
			}
			if s.st != ref.St || s.seq != ref.Seq {
				t.Errorf("%s: window %d: boundary registers/PC/seq %v/%d, functional run %v/%d", name, s.start, s.st, s.seq, ref.St, ref.Seq)
			}
			for _, a := range stored {
				if got, want := s.mem.Load64(a), ref.Mem.Load64(a); got != want {
					t.Fatalf("%s: window %d: boundary memory holds %#x at %#x, functional run %#x", name, s.start, got, a, want)
				}
			}
		}
	}
	if storing == 0 {
		t.Error("no kernel stores anything; the memory check would prove nothing")
	}
}

// A chunked record hands back exactly what was appended, over any range,
// across chunk seams.
func TestPlanRecordChunks(t *testing.T) {
	var c chunked[uint64]
	const n = 3*chunkLen + 5
	for i := uint64(0); i < n; i++ {
		c.add(i * 3)
	}
	if c.len() != n {
		t.Fatalf("len %d after %d adds", c.len(), n)
	}
	for _, r := range [][2]int{{0, n}, {0, 0}, {7, 7}, {chunkLen - 1, chunkLen + 1}, {5, 2*chunkLen + 3}, {3 * chunkLen, n}, {n - 1, n}} {
		next := r[0]
		c.each(r[0], r[1], func(vs []uint64) {
			if len(vs) == 0 {
				t.Errorf("range %v: empty span", r)
			}
			for _, v := range vs {
				if v != uint64(next)*3 {
					t.Fatalf("range %v: entry %d holds %d", r, next, v)
				}
				next++
			}
		})
		if next != r[1] {
			t.Errorf("range %v: spans ended at %d", r, next)
		}
	}
}

// Conservation laws of a projection: the phases partition the profiled
// instructions, their weights sum to one, and the architectural counts of
// the projected Result are the functional pass's, not extrapolated.
func TestSampledResultConserves(t *testing.T) {
	cfg := cpu.DefaultConfig()
	for name, p := range twoKernels(t, cfg) {
		var insts, loads, stores, branches uint64
		it := p.base.Fork().Frontend()
		it.RunWith(planROI, func(di interp.DynInst) {
			insts++
			switch op := di.Inst.Op; {
			case op.IsLoad():
				loads++
			case op.IsStore():
				stores++
			case op.IsBranch():
				branches++
			}
		})
		res, err := p.Replay(context.Background(), noEngine)
		if err != nil {
			t.Fatal(err)
		}
		var mass uint64
		for _, ph := range p.phases {
			mass += ph.insts
		}
		if mass != res.Sampled.ProfiledInsts || mass != insts {
			t.Errorf("%s: phase masses sum to %d, profiled %d, functional run %d", name, mass, res.Sampled.ProfiledInsts, insts)
		}
		var wsum float64
		for _, w := range res.Sampled.PhaseWeights {
			wsum += w
		}
		if math.Abs(wsum-1) > 1e-9 {
			t.Errorf("%s: phase weights sum to %v", name, wsum)
		}
		if res.Instructions != insts || res.Loads != loads || res.Stores != stores || res.Branches != branches {
			t.Errorf("%s: projected {i=%d l=%d s=%d b=%d}, functional {i=%d l=%d s=%d b=%d}", name,
				res.Instructions, res.Loads, res.Stores, res.Branches, insts, loads, stores, branches)
		}
		if res.Sampled.SimulatedInsts == 0 || res.Sampled.SimulatedInsts > insts {
			t.Errorf("%s: %d instructions timed of %d", name, res.Sampled.SimulatedInsts, insts)
		}
	}
}

// BenchmarkNewPlan builds the plan of one quick GAP kernel (bfs on the
// scale-13 Kronecker graph of the quick suite) at a 2 M-instruction ROI,
// the shape of one row of a sampled matrix, and reports the bytes per
// profiled instruction that the transient stream record takes while the
// plan is built.
func BenchmarkNewPlan(b *testing.B) {
	in := graphgen.Params{Gen: graphgen.GenKronecker, Scale: 13, EdgeFactor: 8, Seed: 7, Name: "KR-S"}.Input()
	base := workloads.GAPSpecs(in)[1].Build()
	cfg := cpu.DefaultConfig()
	const roi = 2_000_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlan(base, roi, cfg, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_, tot, rec := profile(base, roi, Options{}.withDefaults(roi).WindowInsts)
	b.ReportMetric(float64(recordBytes(rec))/float64(tot.insts), "record-B/inst")
}

// recordBytes is the memory a stream record holds, chunk capacity
// included.
func recordBytes(rec *stream) int {
	return cap(rec.marks)*int(unsafe.Sizeof(mark{})) + chunkedBytes(&rec.branches) +
		chunkedBytes(&rec.lines) + chunkedBytes(&rec.stores)
}

func chunkedBytes[T any](c *chunked[T]) int {
	var v T
	return (len(c.full)*chunkLen + cap(c.cur)) * int(unsafe.Sizeof(v))
}

// Package sampling implements phase-detected sampled simulation: project
// a full-run cpu.Result from detailed timing simulation of a few
// representative instruction windows instead of the whole ROI.
//
// The pipeline is SimPoint-shaped, with memory-access-vector features
// alongside the classic code signature:
//
//  1. Profile: a functional pass (interp, ~15x faster than the timing
//     core) executes the ROI once, slicing it into fixed-length windows
//     and collecting one signature per window — a hashed basic-block
//     vector (committed-PC histogram) concatenated with a
//     memory-access vector (touched-page histogram), each L1-normalized.
//     It is the only pass that executes the ROI: it also records what
//     step 3 consumes — every branch, the load/store line stream, a log
//     of the stores, and the registers and stream offsets at every window
//     start — over a copy-on-write image it freezes at the ROI start.
//  2. Cluster: deterministic k-means groups the windows into phases;
//     each phase's weight is its share of the executed instructions.
//  3. Prepare: a walk over that record (Plan.walk), which executes
//     nothing, freezes the architectural state (the recorded registers +
//     a copy-on-write view of memory, the store log applied to a fork of
//     the ROI-start image) at every window boundary a replay will start
//     from, and carries one cache hierarchy (mem.Hierarchy.Warm) and one
//     branch predictor of the plan's config through the committed stream,
//     keeping their state at each boundary: what the caches and the
//     predictor hold there depends on the stream alone, never on the
//     technique, so it is computed once per plan instead of per replay.
//     The record is transient (0.7-3.3 bytes per instruction): NewPlan
//     drops it once the walk is done.
//  4. Replay, per technique: for each phase, the window(s) nearest the
//     centroid are timing-simulated. Caches and predictor are restored to
//     the plan's state at the segment start, then a detailed-warmup
//     prefix runs on the timing core with a statistics boundary at the
//     window seam, and the window's contribution is the
//     final-minus-boundary delta — warmup primes state without polluting
//     the measurement.
//  5. Extrapolate: the full-run Result is the phase-weighted combination
//     of the window deltas. Architectural counts (instructions, loads,
//     stores, branches) come exactly from the functional pass;
//     microarchitectural counters are scaled; a 95% confidence
//     half-width (internal/stats) from replicate spread and a
//     cpu.SampledProvenance block ride along.
//
// A Plan is built once per (workload, config, options) and replayed once
// per technique: the profile, clustering, boundary, cache and predictor
// states are technique-independent, but the cache and predictor states
// belong to the config NewPlan was given, so a plan replays under that
// config only. A Plan is read-only once built, so concurrent Replay calls
// on one Plan are safe. Everything is deterministic: the same workload,
// ROI, config and options produce a byte-identical canonical Result.
package sampling

import (
	"errors"
	"fmt"
	"sort"

	"dvr/internal/bpred"
	"dvr/internal/cpu"
	"dvr/internal/interp"
	"dvr/internal/isa"
	"dvr/internal/mem"
	"dvr/internal/workloads"
)

// BuildEngine constructs the technique engine for a replay over a freshly
// assembled frontend/workload/hierarchy (nil engine means the OoO
// baseline). The experiments package supplies its technique registry
// through this hook, which keeps sampling free of a dependency on it.
type BuildEngine func(fe *interp.Interp, w *workloads.Workload, h *mem.Hierarchy) (cpu.Engine, error)

// Options shape a sampled run. The zero value of every field picks an
// auto default, scaled to the ROI.
type Options struct {
	// WindowInsts is the profile window length; 0 picks
	// max(1000, ROI/64) capped at 5000. The final window is partial when
	// the ROI is not a multiple (or the program halts early).
	WindowInsts uint64
	// WarmupInsts is the detailed warmup: instructions run on the timing
	// core (and discarded via boundary delta) before each representative
	// window, re-engaging the technique engine and the in-flight memory
	// state. Rounded up to whole windows (replays start at window
	// boundaries); 0 picks one window. Windows at the ROI start get the
	// prefix that exists — window 0 runs as cold as the exact run does.
	//
	// Cache and branch-predictor warming is not an option: the plan carries
	// both through the whole committed stream, and a replay starts each
	// segment from the state the stream leaves there, so that state tracks
	// the exact run continuously from the ROI start.
	WarmupInsts uint64
	// MaxPhases caps the k-means cluster count; 0 means 8.
	MaxPhases int
	// Replicates is how many windows per phase are timing-simulated
	// (nearest the centroid first); 0 means 1. With two or more, the
	// replicate CPI spread feeds the confidence interval.
	Replicates int
}

func (o Options) withDefaults(roi uint64) Options {
	if o.WindowInsts == 0 {
		// ROI/64 keeps short ROIs from collapsing into a handful of
		// windows; the 5k cap keeps the timed-simulation cost (phases ×
		// replicates × windows) constant as the ROI grows, which is where
		// the wall-clock saving comes from.
		w := roi / 64
		if w < 1_000 {
			w = 1_000
		}
		if w > 5_000 {
			w = 5_000
		}
		o.WindowInsts = w
	}
	if o.WarmupInsts == 0 {
		o.WarmupInsts = o.WindowInsts
	}
	if o.MaxPhases <= 0 {
		o.MaxPhases = 8
	}
	if o.Replicates <= 0 {
		o.Replicates = 1
	}
	return o
}

// ceilWins converts an instruction budget to whole windows.
func ceilWins(insts, winLen uint64) int {
	return int((insts + winLen - 1) / winLen)
}

// Signature geometry: one histogram half for code (hashed committed PCs),
// one for memory (hashed touched pages), L1-normalized per half so window
// length does not dominate distance.
const (
	sigDim    = 32 // buckets per half
	pageShift = 12 // 4 KiB pages, the signature's own unit (interp.Memory copies 512-byte blocks)
	bbvSalt   = 0x9e3779b97f4a7c15
	mavSalt   = 0xd1b54a32d192ed03
)

// window is one profile window: its position and architectural counts
// (exact, from the functional pass) plus its phase signature.
type window struct {
	start    uint64 // committed-instruction offset from the ROI start
	insts    uint64
	loads    uint64
	stores   uint64
	branches uint64
	sig      []float64
}

// profTotals are the exact architectural totals of the functional pass —
// the fields of the projected Result that need no extrapolation.
type profTotals struct {
	insts    uint64
	loads    uint64
	stores   uint64
	branches uint64
}

// segment is one timed excursion of a replay: fork the frozen state at
// window start, run windows [start, bwin] on the timing core (the prefix
// [start, bwin-1] is detailed warmup, subtracted via stats boundary), and
// attribute window bwin's delta to phase. Segments are in ascending
// window order and never overlap — when a representative window directly
// follows the previous timed segment, the carried-over state replaces
// detailed warmup.
//
// The rest is what the walk leaves at window start. The architectural
// state is the walk's register file plus the copy-on-write memory view it
// stopped writing at that instant: replays fork the view (reads share
// pages, writes stay private), so one segment serves any number of
// concurrent replays. The microarchitectural state is what the committed
// stream leaves in the predictor and the caches; caches is nil for a
// segment that directly follows the previous timed one (or starts the
// ROI): a replay keeps running on the state it carries, which also holds
// what its technique prefetched.
type segment struct {
	start int // first timed window
	bwin  int // the measured (representative) window
	phase int // index into phases, for delta attribution

	mem *interp.Memory
	st  interp.State
	seq uint64

	bp     bpred.Snapshot
	caches *mem.CacheState
}

// Plan is a workload's sampled-simulation plan under one config: windows,
// phases, and the replay schedule, each segment with its frozen boundary
// state and the cache and predictor states of the config at its start.
// Build it once with NewPlan, then Replay once per technique. A Plan is
// never written after NewPlan returns, so it is safe for concurrent Replay
// calls.
type Plan struct {
	cfg      cpu.Config
	opts     Options
	warmWins int // detailed warmup, whole windows
	// base is the caller's image: segments run its Prog/Sym/Skip over a
	// fork of a boundary's memory.
	base   *workloads.Workload
	wins   []window
	phases []phase
	segs   []segment
	tot    profTotals
}

// NewPlan profiles, clusters and prepares replay state for the first roi
// instructions of base (after its skip) under opts, warming the branch
// predictor and the cache hierarchy of cfg along the way; the plan replays
// under cfg. roi is required. base is forked internally and never
// mutated; the plan keeps it for its program, so the caller must not write
// it either.
func NewPlan(base *workloads.Workload, roi uint64, cfg cpu.Config, opts Options) (*Plan, error) {
	if roi == 0 {
		return nil, errors.New("sampling: a sampled run needs a nonzero ROI")
	}
	opts = opts.withDefaults(roi)

	wins, tot, rec := profile(base, roi, opts.WindowInsts)
	if tot.insts == 0 {
		return nil, fmt.Errorf("sampling: %s executed no instructions in the ROI", base.Name)
	}
	sigs := make([][]float64, len(wins))
	for i := range wins {
		sigs[i] = wins[i].sig
	}
	k := opts.MaxPhases
	if k > len(wins) {
		k = len(wins)
	}
	assign := kmeans(sigs, k, kmeansMaxIter)
	phases := buildPhases(wins, sigs, assign, opts.Replicates)

	p := &Plan{
		cfg:      cfg,
		opts:     opts,
		warmWins: ceilWins(opts.WarmupInsts, opts.WindowInsts),
		base:     base,
		wins:     wins,
		phases:   phases,
		tot:      tot,
	}
	p.schedule()
	p.walk(rec)
	return p, nil
}

// schedule lays the phases' representative windows out as the ascending,
// non-overlapping timed segments a replay executes. Each representative
// gets up to warmWins windows of detailed warmup in front of it, clipped
// where the previous segment already timed those windows (the carried
// state is better than a warmup) and at the ROI start.
func (p *Plan) schedule() {
	for pi, ph := range p.phases {
		for _, r := range ph.reps {
			p.segs = append(p.segs, segment{bwin: r, phase: pi})
		}
	}
	sort.Slice(p.segs, func(i, j int) bool { return p.segs[i].bwin < p.segs[j].bwin })
	pos := 0 // first window not yet covered by a timed segment
	for i := range p.segs {
		s := &p.segs[i]
		s.start = s.bwin - p.warmWins
		if s.start < pos {
			s.start = pos
		}
		pos = s.bwin + 1
	}
}

// walk replays rec, the profile pass's record of the committed stream, over
// the windows before the last segment, and fills in each segment's state
// at its start. It carries a fresh predictor and a fresh cache hierarchy
// of the plan's config through the stream. The predictor sees what a
// replay's predictor used to see: every branch of a window between
// segments (functional warming takes them all), only the conditional ones
// of a timed window, statistics included (what the core feeds it). The
// hierarchy sees every load and store of every window as demand traffic
// (mem.Hierarchy.Warm): across a gap, a replay's caches hold what the
// program touched, not the prefetches one technique left behind in an
// earlier timed window. It also applies the store log to a fork of the
// ROI-start image and freezes that, with the recorded registers, at every
// segment start. Nothing is executed: the predictor, the hierarchy and the
// memory are independent, so each takes its own record a span of windows
// at a time, in commit order.
//
// The line record drops consecutive accesses to one line (sequential scans
// touch each 64-byte line many times): dropping a duplicate preserves the
// relative LRU order of distinct lines and the dirty bits Warm would set,
// so victims and residency are identical. A store following a load to the
// same line is still kept for its dirty bit.
func (p *Plan) walk(rec *stream) {
	bp := bpred.New(p.cfg.Bpred)
	h := mem.NewHierarchy(p.cfg.Mem)
	m := rec.image.Fork()
	// advance feeds windows [from, to) of the record through.
	advance := func(from, to int, timed bool) {
		a, b := rec.marks[from], rec.marks[to]
		rec.branches.each(a.branches, b.branches, func(ws []uint32) {
			for _, w := range ws {
				if !timed {
					bp.Warm(uint64(w>>2), w&2 != 0)
				} else if w&1 == 0 {
					bp.Update(uint64(w>>2), w&2 != 0)
				}
			}
		})
		rec.lines.each(a.lines, b.lines, func(ws []uint64) {
			for _, w := range ws {
				h.Warm(w>>1*mem.LineSize, w&1 != 0)
			}
		})
		rec.stores.each(a.stores, b.stores, func(ss []storeRec) {
			for _, st := range ss {
				m.Store64(st.addr, st.val)
			}
		})
	}
	pos := 0 // first window after the previous timed segment
	for k := range p.segs {
		s := &p.segs[k]
		advance(pos, s.start, false)
		s.bp = bp.Snapshot()
		if s.start > pos {
			s.caches = h.ExportCaches()
		}
		// Freeze the walk's memory: hand the frozen view to the segment
		// and continue on a fresh fork of it, so nothing written after
		// this instant is visible through the segment's view.
		s.mem, m = m, m.Fork()
		at := rec.marks[s.start]
		s.st, s.seq = at.st, at.seq
		if k == len(p.segs)-1 {
			break
		}
		advance(s.start, s.bwin+1, true)
		pos = s.bwin + 1
	}
}

// profile runs the functional pass over a fork of base: fast-forward the
// untimed skip, then execute up to roi instructions slicing the stream
// into winLen-instruction windows. The final partial window (roi not a
// multiple, or early halt) is kept with its actual length. It is the only
// pass that executes the ROI: besides the windows and their totals it
// returns the record of the stream the walk consumes, over an image it
// freezes at the ROI start.
func profile(base *workloads.Workload, roi, winLen uint64) ([]window, profTotals, *stream) {
	wk := base.Fork()
	it := interp.New(wk.Prog, wk.Mem)
	if wk.Skip > 0 {
		it.Run(wk.Skip)
	}
	rec := newStream(it.Mem, ceilWins(roi, winLen))
	it.Mem = it.Mem.Fork()
	rec.mark(it)
	// The code bucket of a PC never changes, so hash each static
	// instruction once instead of each dynamic one.
	bbv := make([]uint8, len(wk.Prog.Code))
	for pc := range bbv {
		bbv[pc] = uint8(bbvBucket(pc))
	}
	var (
		wins   []window
		tot    profTotals
		cur    window
		counts = make([]float64, 2*sigDim)
		seen   = make(map[uint64]*uint64) // per page, one bit per cache line touched so far
		ft     float64                    // accesses to never-before-seen lines
		// The page of the previous access, its bitmap and its bucket:
		// consecutive accesses mostly stay on a page, and skip the map and
		// the hash.
		lastPage   = ^uint64(0)
		lastBits   *uint64
		lastBucket int
	)
	touch := func(addr uint64) {
		if page := addr >> pageShift; page != lastPage {
			lastPage, lastBits, lastBucket = page, seen[page], sigDim+mavBucket(page)
			if lastBits == nil {
				lastBits = new(uint64)
				seen[page] = lastBits
			}
		}
		counts[lastBucket]++
		if bit := uint64(1) << (addr % (1 << pageShift) / mem.LineSize); *lastBits&bit == 0 {
			*lastBits |= bit
			ft++
		}
	}
	step := func(di *interp.DynInst) {
		counts[bbv[di.PC]]++
		op := di.Inst.Op
		switch {
		case op.IsLoad():
			cur.loads++
			touch(di.Addr)
			rec.access(di.Addr, false)
		case op.IsStore():
			cur.stores++
			touch(di.Addr)
			rec.access(di.Addr, true)
			rec.stores.add(storeRec{di.Addr, di.Val})
		case op.IsBranch():
			cur.branches++
			rec.branch(di)
		}
	}
	// One window per run, so counting and slicing cost nothing per
	// instruction. A window shorter than winLen is the last one.
	for tot.insts < roi {
		n := it.RunInto(min(winLen, roi-tot.insts), step)
		if n == 0 {
			break
		}
		cur.insts = n
		// The last signature element is the window's first-touch fraction:
		// the share of its memory accesses that hit a cache line no earlier
		// window touched. Basic-block and page histograms cannot tell a
		// cold-start window from a warm one executing the same code, and a
		// warm representative standing in for cold mass is the dominant
		// projection error on short regions — compulsory-miss behaviour has
		// to be part of the phase signature.
		sig := normalizeSig(counts)
		if acc := cur.loads + cur.stores; acc > 0 {
			sig = append(sig, ft/float64(acc))
		} else {
			sig = append(sig, 0)
		}
		cur.sig = sig
		wins = append(wins, cur)
		rec.mark(it)
		tot.insts += cur.insts
		tot.loads += cur.loads
		tot.stores += cur.stores
		tot.branches += cur.branches
		cur = window{start: tot.insts}
		counts = make([]float64, 2*sigDim)
		ft = 0
		if n < winLen {
			break
		}
	}
	return wins, tot, rec
}

func bbvBucket(pc int) int {
	return int(isa.Mix64(uint64(pc)^bbvSalt) % sigDim)
}

func mavBucket(page uint64) int {
	return int(isa.Mix64(page^mavSalt) % sigDim)
}

// normalizeSig L1-normalizes each half of the raw bucket counts, so the
// code and memory distributions contribute equal weight regardless of the
// window's instruction mix or length.
func normalizeSig(counts []float64) []float64 {
	out := make([]float64, len(counts))
	half := len(counts) / 2
	for _, part := range [][2]int{{0, half}, {half, len(counts)}} {
		var l1 float64
		for _, v := range counts[part[0]:part[1]] {
			l1 += v
		}
		if l1 == 0 {
			continue
		}
		for i := part[0]; i < part[1]; i++ {
			out[i] = counts[i] / l1
		}
	}
	return out
}

// phase is one cluster: the windows that will be timing-simulated for it
// (nearest the centroid first) and the instruction mass it represents.
type phase struct {
	reps  []int // window indices to replay
	insts uint64
}

// buildPhases turns a k-means assignment into replay plans: per non-empty
// cluster, the exact centroid over its members, the members sorted by
// distance to it (index as tie-break, so the plan is deterministic), and
// the cluster's instruction mass.
func buildPhases(wins []window, sigs [][]float64, assign []int, replicates int) []phase {
	k := 0
	for _, a := range assign {
		if a+1 > k {
			k = a + 1
		}
	}
	members := make([][]int, k)
	for i, a := range assign {
		members[a] = append(members[a], i)
	}
	var phases []phase
	for _, m := range members {
		if len(m) == 0 {
			continue
		}
		centroid := make([]float64, len(sigs[m[0]]))
		var insts uint64
		for _, wi := range m {
			insts += wins[wi].insts
			for j, v := range sigs[wi] {
				centroid[j] += v
			}
		}
		for j := range centroid {
			centroid[j] /= float64(len(m))
		}
		// Selection sort of the first `replicates` members by (distance,
		// index): cheap, fully deterministic, no float-sort subtleties.
		order := append([]int(nil), m...)
		n := replicates
		if n > len(order) {
			n = len(order)
		}
		for i := 0; i < n; i++ {
			best := i
			bestD := dist2(sigs[order[best]], centroid)
			for j := i + 1; j < len(order); j++ {
				if d := dist2(sigs[order[j]], centroid); d < bestD || (d == bestD && order[j] < order[best]) {
					best, bestD = j, d
				}
			}
			order[i], order[best] = order[best], order[i]
		}
		phases = append(phases, phase{reps: order[:n], insts: insts})
	}
	return phases
}

package sampling

import (
	"context"
	"fmt"
	"math"

	"dvr/internal/bpred"
	"dvr/internal/cpu"
	"dvr/internal/interp"
	"dvr/internal/mem"
	"dvr/internal/stats"
)

// phaseResult is one phase's replay output: the instruction mass it
// represents and the measured window deltas (one per replicate).
type phaseResult struct {
	insts  uint64
	deltas []cpu.Result
}

// Replay timing-simulates the plan's segments under one technique, with
// the config the plan was built for, and extrapolates the full-run Result.
// One hierarchy and one predictor live for the whole pass and segments run
// in ascending window order. Nothing is warmed per replay: what the caches
// and the predictor hold at a segment start depends only on the committed
// stream, so the plan computed it once (Plan.walk) and each segment
// restores it. A segment that directly follows the previous timed one
// keeps the cache state it carries instead. Cache and predictor state thus
// track the exact run continuously from the ROI start — a replayed window
// never sees artificial cold misses for the techniques to hide. Concurrent
// Replay calls on one Plan are safe: each call owns its hierarchy and
// predictor, and only reads the plan, forking its frozen memory views
// copy-on-write.
func (p *Plan) Replay(ctx context.Context, build BuildEngine) (cpu.Result, error) {
	if err := ctx.Err(); err != nil {
		return cpu.Result{}, err
	}
	h := mem.NewHierarchy(p.cfg.Mem)
	bp := bpred.New(p.cfg.Bpred)
	results := make([]phaseResult, len(p.phases))
	for i, ph := range p.phases {
		results[i].insts = ph.insts
	}
	var simulated uint64
	for k := range p.segs {
		s := &p.segs[k]
		if s.caches != nil {
			if err := h.ImportCaches(s.caches); err != nil {
				return cpu.Result{}, err
			}
		}
		if err := bp.Restore(s.bp); err != nil {
			return cpu.Result{}, err
		}
		delta, ran, err := p.runSegment(ctx, build, h, bp, s)
		if err != nil {
			return cpu.Result{}, err
		}
		results[s.phase].deltas = append(results[s.phase].deltas, delta)
		simulated += ran
	}
	eff := p.opts
	eff.WarmupInsts = uint64(p.warmWins) * p.opts.WindowInsts
	return extrapolate(p.tot, p.wins, results, eff, simulated), nil
}

// runSegment times windows [s.start, s.bwin] and isolates window s.bwin's
// contribution: the prefix is detailed warmup (engine live, in-flight
// memory state forming) and the measured window's delta is taken against
// the stats boundary the core reports at the warmup/window seam. The
// stats boundary copies no architectural state, so every engine supports
// it — no technique degrades to a cold replay. The segment's demand
// traffic stays in h/bp afterwards, exactly as it would in the exact run.
//
// One known defect: the boundary reads hier.Stats.MSHRBusyCycles, which
// only FinishStats settles, so the window is charged its detailed
// warmup's MSHR occupancy too and sampled MLP reads high (DESIGN.md,
// "Sampled simulation"). DemandMissCycles is added at access time and
// splits at the boundary like every other counter.
func (p *Plan) runSegment(ctx context.Context, build BuildEngine, h *mem.Hierarchy, bp *bpred.Predictor, s *segment) (cpu.Result, uint64, error) {
	// Segment cycle clocks restart at zero; drop the previous segment's
	// transient timing state and note the cumulative counters so the
	// segment's own contribution can be isolated.
	h.BeginSegment()
	pre := cpu.Result{
		Mem:              h.Stats,
		BranchLookups:    bp.Lookups,
		BranchMispredict: bp.Mispredicts,
	}
	wk := *p.base
	wk.Mem = s.mem.Fork()
	fe := interp.New(wk.Prog, wk.Mem)
	fe.St = s.st
	fe.Seq = s.seq
	core := cpu.NewCoreWith(p.cfg, fe, h, bp)
	eng, err := build(fe, &wk, h)
	if err != nil {
		return cpu.Result{}, 0, err
	}
	if eng != nil {
		core.Attach(eng)
	}

	var detLen uint64
	for j := s.start; j < s.bwin; j++ {
		detLen += p.wins[j].insts
	}
	var boundary *cpu.Result
	opts := cpu.RunOptions{}
	if detLen > 0 {
		opts.StatsBoundaryAt = detLen
		opts.StatsBoundaryFn = func(r cpu.Result) { boundary = &r }
	}
	res, err := core.RunWithOptions(ctx, detLen+p.wins[s.bwin].insts, opts)
	if err != nil {
		return cpu.Result{}, 0, err
	}
	if detLen == 0 {
		return res.Sub(pre), res.Instructions, nil
	}
	if boundary == nil {
		return cpu.Result{}, 0, fmt.Errorf("sampling: run ended before the warmup boundary of window %d", s.bwin)
	}
	return res.Sub(*boundary), res.Instructions, nil
}

// extrapolate combines the phase deltas into a projected full-run Result.
// Architectural totals are exact (functional pass); everything
// microarchitectural is the phase-weighted sum, each phase scaled from
// its simulated instructions up to the instruction mass it represents.
func extrapolate(tot profTotals, wins []window, phases []phaseResult, opts Options, simulated uint64) cpu.Result {
	out := cpu.Result{
		SchemaVersion: cpu.ResultSchemaVersion,
		Instructions:  tot.insts,
		Loads:         tot.loads,
		Stores:        tot.stores,
		Branches:      tot.branches,
	}
	var (
		cyclesF, robF, holdF, lookF, mispF float64
		ciSq                               float64
		weights                            []float64
		livePhases                         int
	)
	for _, p := range phases {
		var dInsts uint64
		for _, d := range p.deltas {
			dInsts += d.Instructions
		}
		if dInsts == 0 {
			continue
		}
		livePhases++
		weights = append(weights, float64(p.insts)/float64(tot.insts))
		scale := float64(p.insts) / float64(dInsts)
		var cpis []float64
		for _, d := range p.deltas {
			cyclesF += float64(d.Cycles) * scale
			robF += float64(d.ROBStallCycles) * scale
			holdF += float64(d.CommitHoldCycles) * scale
			lookF += float64(d.BranchLookups) * scale
			mispF += float64(d.BranchMispredict) * scale
			out.Mem.AddScaled(d.Mem, scale)
			out.Engine.AddScaled(d.Engine, scale)
			if d.Instructions > 0 {
				cpis = append(cpis, float64(d.Cycles)/float64(d.Instructions))
			}
		}
		if len(cpis) >= 2 {
			// Projected phase cycles ≈ p.insts × mean replicate CPI; the CI
			// on the mean CPI scales by the same instruction mass.
			half := stats.CI95(cpis) * float64(p.insts)
			ciSq += half * half
		}
	}
	round := func(f float64) uint64 { return uint64(f + 0.5) }
	out.Cycles = round(cyclesF)
	out.ROBStallCycles = round(robF)
	out.CommitHoldCycles = round(holdF)
	out.BranchLookups = round(lookF)
	out.BranchMispredict = round(mispF)
	// EngineStats.AddScaled accumulates LanesVectorize as an
	// episode-weighted lane total; normalize back to a per-episode average.
	if out.Engine.Episodes > 0 {
		out.Engine.LanesVectorize /= float64(out.Engine.Episodes)
	} else {
		out.Engine.LanesVectorize = 0
	}
	out.DeriveTotals()
	prov := &cpu.SampledProvenance{
		WindowInsts:    opts.WindowInsts,
		Windows:        len(wins),
		Phases:         livePhases,
		PhaseWeights:   weights,
		WarmupInsts:    opts.WarmupInsts,
		Replicates:     opts.Replicates,
		ProfiledInsts:  tot.insts,
		SimulatedInsts: simulated,
	}
	if out.Cycles > 0 {
		prov.CyclesCI95Rel = math.Sqrt(ciSq) / float64(out.Cycles)
	}
	out.Sampled = prov
	return out
}

package main

import (
	"context"
	"math"
	"runtime"
	"time"

	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/workloads"
)

// matrixFn runs one full benchmark x technique matrix.
type matrixFn func(ctx context.Context, specs []workloads.Spec) (matrix, error)

func sampledMatrix(ctx context.Context, specs []workloads.Spec) (matrix, error) {
	return experiments.MatrixSampled(ctx, specs, figTechs, cpu.DefaultConfig(), experiments.SampleOptions{})
}

// matrixRep is what one timed matrix yields.
type matrixRep struct {
	wall   time.Duration
	m      matrix
	insts  uint64
	hostNS int64
}

func (r *run) timeMatrix(ctx context.Context, s *builtSuite, fn matrixFn, parent *liveSpan) (matrixRep, error) {
	sp := r.spans.start("experiments.matrix", parent)
	t0 := time.Now()
	m, err := fn(ctx, s.specs)
	wall := time.Since(t0)
	sp.end()
	if err != nil {
		return matrixRep{}, err
	}
	rep := matrixRep{wall: wall, m: m}
	for _, row := range m {
		for _, res := range row {
			rep.insts += res.Instructions
			rep.hostNS += res.HostNS
		}
	}
	return rep, nil
}

// setupMatrix performs the matrix workloads' set-up setupReps times (graph
// generation plus 13 image builds), reports the median as setup_s, and
// returns the last suite built.
func (r *run) setupMatrix(roi uint64) (*builtSuite, error) {
	var times []float64
	var suite *builtSuite
	for i := 0; i < r.sz.setupReps; i++ {
		sp := r.spans.start("setup", nil)
		t0 := time.Now()
		s, err := r.buildSuite(sp, roi)
		sp.end()
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		suite = s
	}
	r.setE2E("setup_s", median(times), len(times))
	if r.tracing() {
		r.setLayer("graphgen.generate_ms", median(r.spans.durationsMS("graphgen.generate")), r.sz.setupReps)
		var sum float64
		builds := r.spans.durationsMS("workloads.build")
		for _, b := range builds {
			sum += b
		}
		r.setLayer("workloads.build_ms", sum/float64(r.sz.setupReps), len(builds))
	}
	return suite, nil
}

// runMatrices is the timed phase shared by matrix-exact and matrix-sampled:
// one untimed warm-up matrix (page faults of the fresh images, allocator
// steady state), then whole matrices until -seconds is spent. One op is one
// cell; one batch is one matrix. It returns the first timed matrix.
func (r *run) runMatrices(ctx context.Context, s *builtSuite, fn matrixFn, roi uint64, sampled bool) (matrixRep, error) {
	if _, err := r.timeMatrix(ctx, s, fn, nil); err != nil {
		return matrixRep{}, err
	}
	var (
		first             matrixRep
		walls, mips, rate []float64
		cellMS            = make(grouped) // per cell, one host time per repetition
	)
	maxReps := r.sz.maxReps
	if r.tracing() && maxReps == 0 {
		maxReps = 2 // a traced run spends its time on the layers instead
	}
	deadline := time.Now().Add(time.Duration(r.o.seconds) * time.Second)
	for rep := 0; ; rep++ {
		if maxReps > 0 && rep >= maxReps {
			break
		}
		if rep >= r.sz.minReps && !time.Now().Add(medianDuration(walls)).Before(deadline) {
			break // the next matrix would overrun the budget
		}
		if err := ctx.Err(); err != nil {
			return matrixRep{}, err
		}
		cur, err := r.timeMatrix(ctx, s, fn, nil)
		if err != nil {
			return matrixRep{}, err
		}
		cells := len(s.specs) * len(figTechs)
		r.attempt(cells)
		if rep == 0 {
			first = cur
			r.verifyMatrix(s, cur.m, nil, roi, sampled)
		} else {
			r.verifyMatrix(s, cur.m, first.m, roi, sampled)
		}
		walls = append(walls, cur.wall.Seconds())
		mips = append(mips, float64(cur.insts)/cur.wall.Seconds()/1e6)
		rate = append(rate, float64(cells)/cur.wall.Seconds())
		for name, row := range cur.m {
			for tech, res := range row {
				cellMS.add(name+"/"+string(tech), float64(res.HostNS)/1e6)
			}
		}
	}
	lat := cellMS.summary(95)
	r.setE2E("wall_s", median(walls), len(walls))
	r.setE2E("sim_mips", median(mips), len(mips))
	r.setE2E("ops_per_s", median(rate), len(rate))
	r.setOpLatency(lat)
	return first, nil
}

func medianDuration(secs []float64) time.Duration {
	return time.Duration(median(secs) * float64(time.Second))
}

// matrixExact: experiments.MatrixE over the 13 quick-suite kernels x the
// six Figure 7 techniques, images pre-built in set-up.
func (r *run) matrixExact(ctx context.Context) error {
	roi := r.sz.roiExact
	s, err := r.setupMatrix(roi)
	if err != nil {
		return err
	}
	first, err := r.runMatrices(ctx, s, exactMatrix, roi, false)
	if err != nil {
		return err
	}
	if !r.tracing() {
		return nil
	}
	r.paperFidelity(s, first.m)
	r.setLayer("experiments.matrix_par_eff",
		float64(first.hostNS)/(float64(first.wall.Nanoseconds())*float64(runtime.GOMAXPROCS(0))), 1)
	seqHostNS, err := r.tracedCells(ctx, s, roi, first.m)
	if err != nil {
		return err
	}
	// Traced cells run one at a time under spans and MemStats reads; the
	// untraced matrix runs them two at a time, so this also carries what
	// sharing the cache hierarchy of the host costs.
	r.setLayer("bench.trace_overhead_pct", 100*(float64(seqHostNS)/float64(first.hostNS)-1), 1)
	if err := r.simulatorProbes(ctx, s); err != nil {
		return err
	}
	r.inProcessLayer()
	return nil
}

// paperFidelity reports how far Figure 7's two headline h-means sit from
// the paper's (DVR 2.4x, VR 1.2x). Simulated, so it repeats exactly.
func (r *run) paperFidelity(s *builtSuite, m matrix) {
	dvr := hmeanSpeedup(s.specs, m, experiments.TechDVR)
	vr := hmeanSpeedup(s.specs, m, experiments.TechVR)
	r.setLayer("paper.dvr_hmean_speedup", dvr, len(s.specs))
	r.setLayer("paper.vr_hmean_speedup", vr, len(s.specs))
	r.setLayer("paper_err_pct", 100*(math.Abs(dvr/2.4-1)+math.Abs(vr/1.2-1))/2, 2)
}

// matrixSampled: the same cells through experiments.MatrixSampled.
func (r *run) matrixSampled(ctx context.Context) error {
	roi := r.sz.roiSampled
	s, err := r.setupMatrix(roi)
	if err != nil {
		return err
	}
	first, err := r.runMatrices(ctx, s, sampledMatrix, roi, true)
	if err != nil {
		return err
	}
	if !r.tracing() {
		return nil
	}
	if err := r.samplingLayer(ctx, s, first); err != nil {
		return err
	}
	if err := r.warmProbes(s); err != nil {
		return err
	}
	r.inProcessLayer()
	return nil
}

// inProcessLayer reports the memory and GC cost of a workload that runs
// entirely in this process.
func (r *run) inProcessLayer() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.setLayer("process.peak_rss_mb", selfPeakRSSMB(), 1)
	r.setLayer("process.gc_cpu_frac", ms.GCCPUFraction, 1)
}

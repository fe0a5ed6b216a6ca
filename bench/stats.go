package main

import (
	"math"
	"sort"
)

// tailSteps are the tail percentiles a latency metric may report, low to
// high, each with the share of samples beyond it in parts per thousand
// (integers, so the ten-samples rule is exact at the boundaries).
var tailSteps = []struct {
	pct    float64
	beyond int
}{{50, 500}, {75, 250}, {90, 100}, {95, 50}, {99, 10}, {99.9, 1}}

// tailPercentile returns the highest percentile in tailSteps that still has
// at least ten samples beyond it among n samples: a p95 needs 200 samples,
// a p99 needs 1000. Below 20 samples only the median qualifies.
func tailPercentile(n int) float64 {
	best := tailSteps[0].pct
	for _, s := range tailSteps {
		if n*s.beyond >= 10*1000 {
			best = s.pct
		}
	}
	return best
}

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks. sorted must be ascending and
// non-empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median returns the median of xs without reordering the caller's slice;
// 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// latencySummary is the median and capped tail of one latency population.
type latencySummary struct {
	N       int
	P50     float64
	Tail    float64 // value at TailPct
	TailPct float64 // min(want, tailPercentile(N))
}

// summarize reports the median and the want-th percentile of xs, lowering
// the tail to the highest percentile the sample count supports.
func summarize(xs []float64, want float64) latencySummary {
	if len(xs) == 0 {
		return latencySummary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pct := math.Min(want, tailPercentile(len(s)))
	return latencySummary{N: len(s), P50: percentile(s, 50), Tail: percentile(s, pct), TailPct: pct}
}

// quartiles returns the first and third quartile of xs by the exclusive
// method (Python's statistics.quantiles(xs, n=4) default), which is what
// the acceptance rule for run-to-run spread uses. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of their median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// grouped holds repeated measurements of the same things (one cell timed in
// every repetition of a matrix, one kernel's job in every cycle of the
// suite). The thing's value is the median of its measurements, so a
// repetition the host disturbed does not set a tail, and statistics are then
// taken across the things — which also keeps a multimodal mix (kernels
// differ several-fold in cost) from making a pooled percentile jump between
// modes from run to run.
type grouped map[string][]float64

func (g grouped) add(key string, v float64) { g[key] = append(g[key], v) }

// medians returns every group's median, ascending, and the total number of
// measurements behind them.
func (g grouped) medians() (meds []float64, samples int) {
	for _, xs := range g {
		meds = append(meds, median(xs))
		samples += len(xs)
	}
	sort.Float64s(meds)
	return meds, samples
}

// summary reports the median and the want-th percentile across the groups'
// medians; the tail is capped by what the total sample count supports.
func (g grouped) summary(want float64) latencySummary {
	meds, samples := g.medians()
	if len(meds) == 0 {
		return latencySummary{}
	}
	pct := math.Min(want, tailPercentile(samples))
	return latencySummary{N: samples, P50: percentile(meds, 50), Tail: percentile(meds, pct), TailPct: pct}
}

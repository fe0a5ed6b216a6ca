// Package stats provides the small numeric helpers the evaluation harness
// uses: harmonic and arithmetic means, confidence intervals, and
// fixed-width table rendering for the paper-style result rows.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// HarmonicMean returns the harmonic mean of xs (the paper's summary metric
// for speedups). Zero or negative entries are ignored; it returns 0 for an
// empty input. A NaN entry (the sentinel for a degenerate run, see
// experiments.Speedup) propagates: the mean is NaN rather than a silently
// skewed number.
func HarmonicMean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if math.IsNaN(x) {
			return math.NaN()
		}
		if x > 0 {
			sum += 1 / x
			n++
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return float64(n) / sum
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (Bessel-corrected,
// n-1 denominator): the spread estimator the sampled-simulation error
// model uses over per-phase replicate measurements. It returns 0 for
// fewer than two samples, where spread is undefined.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)-1))
}

// tTable95 holds two-sided 95% critical values of Student's t for small
// degrees of freedom (index = df, starting at df=1). Beyond the table the
// normal approximation (1.96) is within 1% and is used instead.
var tTable95 = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
	2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
	2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCrit95 returns the two-sided 95% critical value of Student's t with df
// degrees of freedom (1.96, the normal value, for df beyond the table or
// df <= 0 — the latter only arises for degenerate inputs the callers
// already guard).
func TCrit95(df int) float64 {
	if df >= 1 && df < len(tTable95) {
		return tTable95[df]
	}
	return 1.96
}

// CI95 returns the half-width of the two-sided 95% confidence interval on
// the mean of xs, using Student's t for small samples. Fewer than two
// samples carry no spread information; the half-width is 0 (callers
// report it as "no interval" rather than false precision).
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return TCrit95(n-1) * StdDev(xs) / math.Sqrt(float64(n))
}

// Max returns the maximum of xs (0 for empty input).
func Max(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Table renders rows of labelled values as a fixed-width text table, the
// output format of cmd/dvrbench.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are formatted with %v, float64 with %.3g
// unless already strings.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		for i, c := range r {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{1, 1, 1}); got != 1 {
		t.Errorf("HM(1,1,1) = %f", got)
	}
	if got := HarmonicMean([]float64{2, 2}); math.Abs(got-2) > 1e-12 {
		t.Errorf("HM(2,2) = %f", got)
	}
	// HM of {1, 3} = 2/(1 + 1/3) = 1.5
	if got := HarmonicMean([]float64{1, 3}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("HM(1,3) = %f", got)
	}
	if got := HarmonicMean(nil); got != 0 {
		t.Errorf("HM(nil) = %f", got)
	}
	// Non-positive entries are ignored.
	if got := HarmonicMean([]float64{2, 0, -1, 2}); math.Abs(got-2) > 1e-12 {
		t.Errorf("HM with junk = %f", got)
	}
}

// TestMeanInequality: HM <= AM for positive inputs.
func TestMeanInequality(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) && x < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		hm, am := HarmonicMean(xs), Mean(xs)
		const eps = 1e-9
		return hm <= am*(1+eps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanAndMax(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %f", got)
	}
	if got := Max([]float64{1, 5, 3}); got != 5 {
		t.Errorf("Max = %f", got)
	}
	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Error("empty-input means must be 0")
	}
}

func TestStdDev(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{7}, 0},
		{"constant", []float64{3, 3, 3, 3}, 0},
		{"pair", []float64{1, 3}, math.Sqrt2},                               // var = ((1)^2+(1)^2)/1 = 2
		{"classic", []float64{2, 4, 4, 4, 5, 5, 7, 9}, math.Sqrt(32.0 / 7)}, // sample variance
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := StdDev(c.in); math.Abs(got-c.want) > 1e-12 {
				t.Errorf("StdDev(%v) = %g, want %g", c.in, got, c.want)
			}
		})
	}
}

func TestTCrit95(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706},
		{2, 4.303},
		{9, 2.262},
		{30, 2.042},
		{31, 1.96}, // beyond the table: normal approximation
		{1000, 1.96},
		{0, 1.96}, // degenerate df falls back to normal
	}
	for _, c := range cases {
		if got := TCrit95(c.df); got != c.want {
			t.Errorf("TCrit95(%d) = %g, want %g", c.df, got, c.want)
		}
	}
}

func TestCI95(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 0}, // no spread information
		{"constant", []float64{2, 2, 2}, 0},
		// n=2: t(1) * s/sqrt(2) = 12.706 * sqrt(2)/sqrt(2) = 12.706
		{"pair", []float64{1, 3}, 12.706},
		// n=5, s=1: 2.776 / sqrt(5)
		{"five", []float64{-1.2649110640673518, -0.6324555320336759, 0, 0.6324555320336759, 1.2649110640673518}, 2.776 / math.Sqrt(5)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := CI95(c.in); math.Abs(got-c.want) > 1e-9 {
				t.Errorf("CI95(%v) = %g, want %g", c.in, got, c.want)
			}
		})
	}
	// The interval tightens as the sample grows (same per-sample spread).
	small := CI95([]float64{1, 3, 1, 3})
	large := CI95([]float64{1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3})
	if large >= small {
		t.Errorf("CI95 did not tighten with more samples: n=4 %g vs n=12 %g", small, large)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 42)
	out := tb.String()
	for _, want := range []string{"== Demo ==", "name", "value", "alpha", "1.500", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Errorf("table has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestBarChart(t *testing.T) {
	c := NewBarChart("demo")
	c.Add("a", 2)
	c.Add("bb", 1)
	c.Add("c", 0)
	out := c.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("chart lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], strings.Repeat("#", 40)) {
		t.Errorf("max bar not full width: %q", lines[1])
	}
	if strings.Count(lines[2], "#") != 20 {
		t.Errorf("half bar = %d hashes", strings.Count(lines[2], "#"))
	}
	if strings.Count(lines[3], "#") != 0 {
		t.Errorf("zero bar rendered hashes: %q", lines[3])
	}
}

func TestBarChartEmpty(t *testing.T) {
	c := NewBarChart("")
	if c.String() != "" {
		t.Errorf("empty chart output: %q", c.String())
	}
}

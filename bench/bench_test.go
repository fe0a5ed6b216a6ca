package main

import (
	"context"
	"math"
	"regexp"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {240, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestSummarizeCapsTheTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs, 95)
	if s.TailPct != 90 || s.N != 100 {
		t.Fatalf("100 samples: tail p%g n=%d, want p90 n=100", s.TailPct, s.N)
	}
	if math.Abs(s.P50-50.5) > 1e-9 || math.Abs(s.Tail-90.1) > 1e-9 {
		t.Errorf("p50=%g tail=%g, want 50.5 and 90.1", s.P50, s.Tail)
	}
	if s := summarize(make([]float64, 240), 95); s.TailPct != 95 {
		t.Errorf("240 samples: tail p%g, want p95", s.TailPct)
	}
	if s := summarize(nil, 95); s.N != 0 {
		t.Errorf("empty input: n=%d", s.N)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(xs, n=4) of these inputs, computed with Python.
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5}, // n=2 extrapolates past both ends
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %g, want 1 (IQR 5.5 over median 5.5)", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 40},
		// b overlaps a (parallel calls): the covered interval is 10..60,
		// not 30+40.
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 20, End: 60},
		// c outlives its parent: only 90..100 counts against op.
		{ID: 4, Parent: 1, Op: 1, Name: "c", Start: 90, End: 130},
		// grandchild: subtracts from a, not from op.
		{ID: 5, Parent: 2, Op: 1, Name: "leaf", Start: 15, End: 25},
		// never closed: ignored entirely.
		{ID: 6, Parent: 1, Op: 1, Name: "open", Start: 50},
	}
	got := make(map[string]spanTotals)
	for _, row := range selfTimes(spans) {
		got[row.Name] = row
	}
	ns := func(v float64) float64 { return v * 1e6 } // ms -> ns
	for name, want := range map[string][2]float64{
		"op": {100, 40}, "a": {30, 20}, "b": {40, 40}, "c": {40, 40}, "leaf": {10, 10},
	} {
		row, ok := got[name]
		if !ok {
			t.Errorf("no row for %q", name)
			continue
		}
		if math.Abs(ns(row.TotalMS)-want[0]) > 1e-6 || math.Abs(ns(row.SelfMS)-want[1]) > 1e-6 {
			t.Errorf("%s: total %g self %g ns, want %g and %g", name, ns(row.TotalMS), ns(row.SelfMS), want[0], want[1])
		}
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span was aggregated")
	}
}

func TestSpanLogNilIsInert(t *testing.T) {
	var l *spanLog
	sp := l.start("x", nil)
	sp.end()
	if l.durationsMS("x") != nil {
		t.Error("nil log returned durations")
	}
	live := newSpanLog()
	root := live.start("op", nil)
	child := live.start("child", root)
	child.end()
	child.end() // a deferred second end must not move the first
	root.end()
	if live.spans[1].Parent != root.id || live.spans[1].Op != root.op || live.spans[0].Op != live.spans[0].ID {
		t.Errorf("parent/op wiring wrong: %+v", live.spans)
	}
}

const promBefore = `# TYPE dvrd_cache_hits_total counter
dvrd_cache_hits_total 10
# TYPE dvrd_cluster_replicas gauge
dvrd_cluster_replicas{state="up"} 2
dvrd_stream_session_dropped{session="s 1",job="j"} 3
# TYPE dvrd_request_duration_seconds histogram
dvrd_request_duration_seconds_bucket{le="0.001"} 4 # {trace_id="abc"} 0.0004 1.7e9
dvrd_request_duration_seconds_bucket{le="+Inf"} 5
dvrd_request_duration_seconds_sum 0.5
dvrd_request_duration_seconds_count 5
`

const promAfter = `dvrd_cache_hits_total 110
dvrd_cache_misses_total 7
dvrd_cluster_replicas{state="up"} 2
dvrd_request_duration_seconds_sum 2.5
dvrd_request_duration_seconds_count 25
`

func TestPromDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	if got := before[`dvrd_stream_session_dropped{session="s 1",job="j"}`]; got != 3 {
		t.Errorf("label value with a space: got %g, want 3", got)
	}
	if got := before[`dvrd_request_duration_seconds_bucket{le="0.001"}`]; got != 4 {
		t.Errorf("bucket with exemplar: got %g, want 4", got)
	}
	after, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	if d["dvrd_cache_hits_total"] != 100 {
		t.Errorf("hits delta %g, want 100", d["dvrd_cache_hits_total"])
	}
	// A counter absent from the first scrape counts from zero.
	if d["dvrd_cache_misses_total"] != 7 {
		t.Errorf("misses delta %g, want 7", d["dvrd_cache_misses_total"])
	}
	if d[`dvrd_cluster_replicas{state="up"}`] != 0 {
		t.Errorf("gauge delta %g, want 0", d[`dvrd_cluster_replicas{state="up"}`])
	}
	if got := d.histMean("dvrd_request_duration_seconds"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("histogram mean %g, want 0.1 (2 s over 20 observations)", got)
	}
	if got := d.histMean("dvrd_queue_wait_seconds"); got != 0 {
		t.Errorf("unobserved histogram mean %g, want 0", got)
	}
	if _, err := parseProm(strings.NewReader("dvrd_x notanumber\n")); err == nil {
		t.Error("a malformed value parsed")
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy("lower", 10, 11); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 10 -> 11: %g, want 0.1", got)
	}
	if got := worseBy("higher", 10, 9); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("higher-is-better 10 -> 9: %g, want 0.1", got)
	}
	if got := worseBy("higher", 10, 12); got >= 0 {
		t.Errorf("an improvement reads as worse: %g", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesRegistry keeps BENCHMARK.json, which a driver
// reads, and metrics.go, which the harness reports from, one list.
func TestBenchmarkFileMatchesRegistry(t *testing.T) {
	benchDir, err := findBenchDir()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(benchDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bf.Workloads), len(workloadDefs))
	}
	seen := make(map[string]bool)
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet or length", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range bf.Workloads {
		unique(w.Name)
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, w.Name, workloadDefs[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	check := func(kind string, file []benchmarkMetric, defs []metricDef, bounded bool) {
		if len(file) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(file), len(defs))
		}
		for i, m := range file {
			unique(m.Name)
			d := defs[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the harness %s/%s/%s", kind, i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet or length", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s: bound %v, the harness has %g; must be in (0, 0.25]", m.Name, m.Bound, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if len(bf.PerLayer) > 128 || len(bf.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(bf.EndToEnd), len(bf.PerLayer))
	}
	if _, ok := findMetric(endToEnd, "setup_s"); !ok {
		t.Error("setup_s must be an end-to-end metric")
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	for _, arg := range bf.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
	}
}

// TestSmoke drives every workload end to end at -smoke sizes, traced (a
// traced run is the untraced phases plus the layer probes), real dvrd
// processes and the 3-process fleet included.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns dvrd processes")
	}
	benchDir, err := findBenchDir()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadDefs {
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			doc, err := runWorkload(context.Background(), benchDir,
				options{workload: wl.Name, seed: 7, seconds: 1, trace: 1, smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			if !doc.Correct || doc.Failed != 0 || doc.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d: %v", doc.Correct, doc.Attempted, doc.Failed, doc.Failures)
			}
			for _, def := range endToEnd {
				if v := doc.EndToEnd[def.Name]; !(v.Value > 0) || v.Unit != def.Unit || v.N == 0 {
					t.Errorf("%s = %+v; every end-to-end metric must be measured and never 0", def.Name, v)
				}
			}
			line := doc.driverLine()
			if len(line.Metrics) != len(perLayer) {
				t.Errorf("traced result line carries %d metrics, want all %d per-layer metrics", len(line.Metrics), len(perLayer))
			}
			want := map[string]float64{wlServeWarm: 1, wlFleetCold: 0}
			if hit, ok := want[wl.Name]; ok {
				v, measured := doc.PerLayer["service.cache_hit_ratio"]
				if !measured || v.Value != hit {
					t.Errorf("service.cache_hit_ratio = %+v (measured=%v), want %g", v, measured, hit)
				}
			}
			if len(doc.Spans) == 0 {
				t.Error("a traced run recorded no spans")
			}
		})
	}
}

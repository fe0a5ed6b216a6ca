package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"dvr/internal/cpu"
	"dvr/internal/trace"
	"dvr/internal/workloads"
)

// TestTracedBitIdentity is the tentpole's correctness contract: attaching
// a fully enabled recorder (event ring + interval sampler) must not
// change the simulation. Canonical results are compared byte-for-byte
// against untraced runs across the techniques that exercise every
// instrumented path (ROB stalls, runahead episodes, discovery, vector
// batches, prefetch issue/late/useless).
func TestTracedBitIdentity(t *testing.T) {
	specs := QuickSuite().All()
	if len(specs) > 3 {
		specs = specs[:3]
	}
	cfg := cpu.DefaultConfig()
	for _, sp := range specs {
		for _, tech := range []Technique{TechOoO, TechVR, TechDVR} {
			plain, err := RunE(context.Background(), sp, tech, cfg)
			if err != nil {
				t.Fatalf("%s/%s untraced: %v", sp.Name, tech, err)
			}
			rec := trace.New(trace.Config{Events: 4096, IntervalEvery: 5_000})
			traced, err := RunTraced(context.Background(), sp, tech, cfg, rec)
			if err != nil {
				t.Fatalf("%s/%s traced: %v", sp.Name, tech, err)
			}
			a, _ := json.Marshal(plain.Canonical())
			b, _ := json.Marshal(traced.Canonical())
			if !bytes.Equal(a, b) {
				t.Errorf("%s/%s: traced result differs from untraced:\n%s\n%s", sp.Name, tech, a, b)
			}
			if tech != TechOoO && len(rec.Events()) == 0 {
				t.Errorf("%s/%s: traced run recorded no events", sp.Name, tech)
			}
		}
	}
}

// TestIntervalConsistency: the interval series must tile the run and its
// counter deltas must sum to the end-of-run Result (CheckIntervals, the
// check `dvrbench intervals` also runs), on every quick kernel under
// every technique that owns a prefetch source.
func TestIntervalConsistency(t *testing.T) {
	cfg := cpu.DefaultConfig()
	for _, sp := range QuickSuite().All() {
		for _, tech := range []Technique{TechOoO, TechPRE, TechIMP, TechVR, TechDVR} {
			rec := trace.New(trace.Config{IntervalEvery: 7_000})
			res, err := RunTraced(context.Background(), sp, tech, cfg, rec)
			if err != nil {
				t.Fatalf("%s/%s: %v", sp.Name, tech, err)
			}
			if err := CheckIntervals(res, rec.Intervals()); err != nil {
				t.Errorf("%s/%s: %v", sp.Name, tech, err)
			}
		}
	}
}

// TestIntervalsGolden pins the interval series itself, not just its
// tiling: the trace.WriteDumpJSON bytes of two quick kernels under OoO,
// VR and DVR at a 5 000-instruction cadence must match
// testdata/intervals_quick.golden. A change to how intervals are sampled
// or derived that is meant to be invisible proves it here.
func TestIntervalsGolden(t *testing.T) {
	specs := QuickSuite().All()[:2]
	cfg := cpu.DefaultConfig()
	var buf bytes.Buffer
	for _, sp := range specs {
		for _, tech := range []Technique{TechOoO, TechVR, TechDVR} {
			const every = 5_000
			rec := trace.New(trace.Config{IntervalEvery: every})
			if _, err := RunTraced(context.Background(), sp, tech, cfg, rec); err != nil {
				t.Fatalf("%s/%s: %v", sp.Name, tech, err)
			}
			d := trace.Dump{Bench: sp.Name, Technique: string(tech), IntervalInsts: every, Intervals: rec.Intervals()}
			if err := trace.WriteDumpJSON(&buf, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	matchGolden(t, "intervals_quick.golden", buf.String())
}

// TestIntervalPartialFinal is the regression test for the interval-sampler
// edge case where the run length is not a multiple of IntervalEvery: the
// final partial interval must still be emitted so the series tiles the run
// exactly. Covers the exact-multiple case (no empty trailing interval), a
// cadence longer than the whole run (one interval), a program that halts
// before its ROI (the partial tail is cut at the real halt point), and one
// that halts on a cadence boundary (the interval closed there is the last:
// the core closes no empty one after it).
func TestIntervalPartialFinal(t *testing.T) {
	bfs := quickSpec() // ROI 30_000
	halt := workloads.Spec{Name: "bfs_halt", Build: bfs.Build, ROI: 50_000_000}
	cases := []struct {
		name  string
		spec  workloads.Spec
		every uint64 // 0: the instruction count the program halts at
		// wantLast is the expected instruction length of the final
		// interval; 0 means "derive from the run" (halt cases).
		wantLast uint64
	}{
		{"partial-final", bfs, 7_000, 30_000 % 7_000},
		{"exact-multiple", bfs, 10_000, 10_000},
		{"cadence-beyond-roi", bfs, 100_000, 30_000},
		{"early-halt", halt, 7_000, 0},
		{"halt-on-boundary", halt, 0, 0},
	}
	cfg := cpu.DefaultConfig()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			every := tc.every
			if every == 0 {
				plain, err := RunE(context.Background(), tc.spec, TechOoO, cfg)
				if err != nil {
					t.Fatal(err)
				}
				every = plain.Instructions
			}
			rec := trace.New(trace.Config{IntervalEvery: every})
			res, err := RunTraced(context.Background(), tc.spec, TechOoO, cfg, rec)
			if err != nil {
				t.Fatal(err)
			}
			if tc.spec.Name == halt.Name && res.Instructions >= tc.spec.ROI {
				t.Fatalf("workload did not halt early (%d insts); case is vacuous", res.Instructions)
			}
			ivs := rec.Intervals()
			if err := CheckIntervals(res, ivs); err != nil {
				t.Fatal(err)
			}
			want := (res.Instructions + every - 1) / every
			if uint64(len(ivs)) != want {
				t.Errorf("got %d intervals for %d insts at cadence %d, want %d",
					len(ivs), res.Instructions, every, want)
			}
			wantLast := tc.wantLast
			if wantLast == 0 {
				wantLast = res.Instructions % every
				if wantLast == 0 {
					wantLast = every
				}
			}
			last := ivs[len(ivs)-1]
			if got := last.EndInst - last.StartInst; got != wantLast {
				t.Errorf("final interval spans %d insts, want %d", got, wantLast)
			}
		})
	}
}

// TestTracedRunPerfettoByteStable: two traced runs of the same cell must
// render byte-identical Perfetto documents (the recording itself is
// deterministic, not just the Result).
func TestTracedRunPerfettoByteStable(t *testing.T) {
	sp := QuickSuite().All()[0]
	cfg := cpu.DefaultConfig()
	render := func() []byte {
		rec := trace.New(trace.Config{Events: 4096, IntervalEvery: 5_000})
		if _, err := RunTraced(context.Background(), sp, TechDVR, cfg, rec); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WritePerfetto(&buf, sp.Name); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Error("repeated traced runs rendered different Perfetto bytes")
	}
	if !json.Valid(a) {
		t.Error("Perfetto output is not valid JSON")
	}
}

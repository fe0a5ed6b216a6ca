// Command dvrbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dvrbench table1|table2|fig2|fig7|fig8|fig9|fig10|fig11|fig12|intervals|ablation|perf|all [-quick]
//
// With -quick, a scaled-down suite runs in seconds; without it, the full
// Table 2 inputs and the paper's ROIs are used (minutes).
//
// The intervals subcommand runs the suite under ooo, vr and dvr with the
// interval sampler attached and prints per-cell IPC/MLP sparklines plus a
// consistency line asserting the sampled series sums back to the
// end-of-run Result. With -trace DIR, fig7 and fig8 run each cell
// sequentially with the event recorder attached and write one Perfetto
// JSON per cell to <dir>/<bench>-<tech>.json; the rendered figure is
// bit-identical to the untraced one (tracing is observational).
//
// The perf subcommand measures the simulator itself — simulated MIPS and
// host allocations per simulated instruction for every benchmark×technique
// cell — and writes the rows to BENCH_perf.json, the input of the
// perf-regression guard. -cpuprofile/-memprofile write pprof profiles of
// whatever experiment ran.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"dvr/internal/checkpoint"
	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/faults"
	"dvr/internal/graphgen"
	"dvr/internal/service/api"
	"dvr/internal/service/client"
	"dvr/internal/stats"
	"dvr/internal/trace"
	"dvr/internal/workloads"
)

func main() {
	quick := flag.Bool("quick", false, "run the scaled-down suite")
	jsonOut := flag.Bool("json", false, "emit raw result rows as JSON instead of tables")
	server := flag.String("server", "", "run matrix experiments (fig7, fig8) against this dvrd server instead of in-process")
	ckptDir := flag.String("checkpoint-dir", "", "journal matrix cells (fig7, fig8) to this directory so a killed run resumes instead of restarting")
	traceDir := flag.String("trace", "", "write one Perfetto trace-event JSON per matrix cell (fig7, fig8) to this directory")
	sampled := flag.Bool("sampled", false, "fig7/fig8/perf: project results from phase-representative windows instead of timing full ROIs")
	sWindow := flag.Uint64("sample-window", 0, "with -sampled, profiling window length in instructions (0 = auto from ROI)")
	sWarmup := flag.Uint64("warmup", 0, "with -sampled, timed-but-discarded warmup per measured window (0 = one window)")
	sPhases := flag.Int("sample-phases", 0, "with -sampled, maximum phase clusters (0 = default)")
	sReps := flag.Int("sample-reps", 0, "with -sampled, representative windows timed per phase (0 = one)")
	fidROI := flag.Uint64("fidelity-roi", 2_000_000, "fidelity: ROI the quick-suite benchmarks are stretched to")
	fidTol := flag.Float64("fidelity-tol", 0.02, "fidelity: max mean per-technique h-mean speedup error")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dvrbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dvrbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dvrbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dvrbench:", err)
			}
		}()
	}
	var args []string
	for _, a := range flag.Args() {
		// Accept -quick in any position.
		if a == "-quick" || a == "--quick" {
			*quick = true
			continue
		}
		args = append(args, a)
	}
	if len(args) == 0 {
		args = []string{"all"}
	}

	cfg := cpu.DefaultConfig()
	suite := experiments.FullSuite
	if *quick {
		suite = experiments.QuickSuite
	}
	so := experiments.SampleOptions{
		WindowInsts: *sWindow,
		WarmupInsts: *sWarmup,
		MaxPhases:   *sPhases,
		Replicates:  *sReps,
	}
	if *sampled && (*server != "" || *ckptDir != "" || *traceDir != "") {
		// Sampling replaces the exact single-run path those modes wrap; the
		// dvrd server takes sampling via the API instead (SimRequest.Sampling).
		fmt.Fprintln(os.Stderr, "dvrbench: -sampled cannot be combined with -server, -checkpoint-dir or -trace")
		os.Exit(1)
	}

	emit := func(rows interface{}, render func() string) {
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rows); err != nil {
				fmt.Fprintln(os.Stderr, "dvrbench:", err)
				os.Exit(1)
			}
			return
		}
		fmt.Println(render())
	}

	run := func(name string) {
		start := time.Now()
		switch name {
		case "table1":
			fmt.Println(experiments.Table1(cfg))
		case "table2":
			roi := uint64(0)
			if *quick {
				roi = 60_000
			}
			rows, render := experiments.Table2(cfg, roi)
			emit(rows, render)
		case "fig2":
			s := gapSuite(*quick)
			ooo, vr, render := experiments.Fig2(s.GAP, cfg)
			emit(map[string]interface{}{"ooo": ooo, "vr": vr}, render)
		case "fig7":
			techs := append([]experiments.Technique{experiments.TechOoO}, experiments.AllTechniques...)
			if *sampled {
				specs := suite().All()
				m, err := experiments.MatrixSampled(context.Background(), specs, techs, cfg, so)
				if err != nil {
					fmt.Fprintln(os.Stderr, "dvrbench:", err)
					os.Exit(1)
				}
				rows, render := experiments.Fig7FromMatrix(specs, m)
				emit(rows, render)
				break
			}
			if *server != "" || *ckptDir != "" || *traceDir != "" {
				specs := suite().All()
				m, err := matrixVia(*server, *ckptDir, *traceDir, specs, techs, cfg)
				if err != nil {
					fmt.Fprintln(os.Stderr, "dvrbench:", err)
					os.Exit(1)
				}
				rows, render := experiments.Fig7FromMatrix(specs, m)
				emit(rows, render)
				break
			}
			rows, render := experiments.Fig7(suite().All(), cfg)
			emit(rows, render)
		case "fig8":
			techs := append([]experiments.Technique{experiments.TechOoO}, experiments.Fig8Variants...)
			if *sampled {
				specs := suite().All()
				m, err := experiments.MatrixSampled(context.Background(), specs, techs, cfg, so)
				if err != nil {
					fmt.Fprintln(os.Stderr, "dvrbench:", err)
					os.Exit(1)
				}
				rows, render := experiments.Fig8FromMatrix(specs, m)
				emit(rows, render)
				break
			}
			if *server != "" || *ckptDir != "" || *traceDir != "" {
				specs := suite().All()
				m, err := matrixVia(*server, *ckptDir, *traceDir, specs, techs, cfg)
				if err != nil {
					fmt.Fprintln(os.Stderr, "dvrbench:", err)
					os.Exit(1)
				}
				rows, render := experiments.Fig8FromMatrix(specs, m)
				emit(rows, render)
				break
			}
			rows, render := experiments.Fig8(suite().All(), cfg)
			emit(rows, render)
		case "fig9":
			rows, render := experiments.Fig9(suite().All(), cfg)
			emit(rows, render)
		case "fig10":
			rows, render := experiments.Fig10(suite().All(), cfg)
			emit(rows, render)
		case "fig11":
			rows, render := experiments.Fig11(suite().All(), cfg)
			emit(rows, render)
		case "intervals":
			if err := intervalsReport(os.Stdout, suite(), cfg); err != nil {
				fmt.Fprintln(os.Stderr, "dvrbench:", err)
				os.Exit(1)
			}
		case "fig12":
			s := gapSuite(*quick)
			specs := append(s.GAP, suite().HPCDB...)
			rows, render := experiments.Fig12(specs, cfg)
			emit(rows, render)
		case "perf":
			rows, render := perfRows(suite(), cfg)
			emit(rows, render)
			if err := writePerfJSON("BENCH_perf.json", rows); err != nil {
				fmt.Fprintln(os.Stderr, "dvrbench:", err)
				os.Exit(1)
			}
			fmt.Println("wrote BENCH_perf.json")
			if *sampled {
				// BENCH_perf.json stays exact-only (its schema is the
				// regression guard's input); -sampled appends a wall-clock
				// comparison of the two suite paths.
				exactDur, sampDur, err := suiteWallClock(suite().All(), cfg, so)
				if err != nil {
					fmt.Fprintln(os.Stderr, "dvrbench:", err)
					os.Exit(1)
				}
				fmt.Printf("suite wall-clock: exact %s, sampled %s (%.1fx)\n",
					exactDur.Round(time.Millisecond), sampDur.Round(time.Millisecond),
					float64(exactDur)/float64(sampDur))
			}
		case "fidelity":
			if err := fidelityReport(os.Stdout, *fidROI, so, *fidTol, cfg); err != nil {
				fmt.Fprintln(os.Stderr, "dvrbench:", err)
				os.Exit(1)
			}
		case "ablation":
			specs := suite().All()
			if *quick {
				specs = specs[:4]
			}
			_, r1 := experiments.AblationLanes(specs, cfg)
			fmt.Println(r1())
			_, r2 := experiments.AblationReconvergence(specs, cfg)
			fmt.Println(r2())
			_, r3 := experiments.AblationTimeout(specs, cfg)
			fmt.Println(r3())
			_, r4 := experiments.AblationMSHR(specs, cfg)
			fmt.Println(r4())
			_, r5 := experiments.AblationBandwidth(specs, cfg)
			fmt.Println(r5())
		default:
			fmt.Fprintf(os.Stderr, "dvrbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		out := os.Stdout
		if *jsonOut {
			out = os.Stderr // keep -json stdout parseable
		}
		fmt.Fprintf(out, "[%s took %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	for _, a := range args {
		if a == "all" {
			for _, n := range []string{"table1", "table2", "fig2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"} {
				run(n)
			}
			continue
		}
		run(a)
	}
}

// matrixVia routes a benchmark × technique matrix through whichever
// special path the flags picked: a dvrd server (-server), a local
// checkpoint directory (-checkpoint-dir), or per-cell Perfetto tracing
// (-trace). The three are mutually exclusive — the server has its own
// checkpoint directory, and tracing forces sequential in-process runs.
func matrixVia(server, ckptDir, traceDir string, specs []workloads.Spec, techs []experiments.Technique, cfg cpu.Config) (map[string]map[experiments.Technique]cpu.Result, error) {
	set := 0
	for _, f := range []string{server, ckptDir, traceDir} {
		if f != "" {
			set++
		}
	}
	if set > 1 {
		return nil, fmt.Errorf("-server, -checkpoint-dir and -trace are mutually exclusive")
	}
	switch {
	case server != "":
		return serverMatrix(server, specs, techs, cfg)
	case traceDir != "":
		return tracedMatrix(traceDir, specs, techs, cfg)
	}
	return durableMatrix(ckptDir, specs, techs, cfg)
}

// tracedMatrix runs the matrix in-process, one cell at a time, each with
// an event recorder attached, and writes one Perfetto trace-event JSON
// per cell to <dir>/<bench>-<tech>.json. Cells run sequentially so each
// recording reflects one undisturbed run. Tracing is observational: the
// returned matrix is bit-identical to an untraced run's.
func tracedMatrix(dir string, specs []workloads.Spec, techs []experiments.Technique, cfg cpu.Config) (map[string]map[experiments.Technique]cpu.Result, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := make(map[string]map[experiments.Technique]cpu.Result, len(specs))
	for _, sp := range specs {
		row := make(map[experiments.Technique]cpu.Result, len(techs))
		for _, tech := range techs {
			rec := trace.New(trace.Config{Events: 65536})
			res, err := experiments.RunTraced(context.Background(), sp, tech, cfg, rec)
			if err != nil {
				return nil, fmt.Errorf("cell %s-%s: %w", sp.Name, tech, err)
			}
			path := filepath.Join(dir, fmt.Sprintf("%s-%s.json", sp.Name, tech))
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			werr := rec.WritePerfetto(f, fmt.Sprintf("%s (%s)", sp.Name, tech))
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return nil, fmt.Errorf("cell %s-%s: %w", sp.Name, tech, werr)
			}
			row[tech] = res
		}
		m[sp.Name] = row
	}
	// To stderr so -json output stays parseable.
	fmt.Fprintf(os.Stderr, "[trace: wrote %d Perfetto files to %s]\n", len(specs)*len(techs), dir)
	return m, nil
}

// intervalTechs are the techniques the intervals subcommand samples: the
// baseline and the two runahead designs the paper's time-series figures
// contrast.
var intervalTechs = []experiments.Technique{experiments.TechOoO, experiments.TechVR, experiments.TechDVR}

// intervalsReport runs the suite with the interval sampler attached and
// prints one line per cell — IPC and MLP sparklines over ~16 intervals —
// followed by a consistency line. Consistency means the sampled series
// sums back to the end-of-run Result exactly: interval instruction deltas
// total res.Instructions and the last boundary lands on res.Cycles. A
// mismatch is an error (the CI trace-smoke job greps for the OK line).
func intervalsReport(w io.Writer, s experiments.Suite, cfg cpu.Config) error {
	specs := s.All()
	cells, bad := 0, 0
	fmt.Fprintf(w, "Interval telemetry (%d cells; IPC and MLP sparklines)\n", len(specs)*len(intervalTechs))
	for _, sp := range specs {
		roi := sp.ROI
		if roi == 0 {
			roi = 300_000
		}
		// ~16 intervals per cell whatever its length.
		every := roi / 16
		if every < 1_000 {
			every = 1_000
		}
		for _, tech := range intervalTechs {
			rec := trace.New(trace.Config{IntervalEvery: every})
			res, err := experiments.RunTraced(context.Background(), sp, tech, cfg, rec)
			if err != nil {
				return fmt.Errorf("cell %s-%s: %w", sp.Name, tech, err)
			}
			ivs := rec.Intervals()
			var insts uint64
			var lastCycle uint64
			ipc := make([]float64, 0, len(ivs))
			mlp := make([]float64, 0, len(ivs))
			for _, iv := range ivs {
				insts += iv.EndInst - iv.StartInst
				lastCycle = iv.EndCycle
				ipc = append(ipc, iv.IPC)
				mlp = append(mlp, iv.MLP)
			}
			cells++
			ok := insts == res.Instructions && lastCycle == res.Cycles
			if !ok {
				bad++
			}
			status := "ok"
			if !ok {
				status = fmt.Sprintf("MISMATCH insts=%d/%d cycles=%d/%d", insts, res.Instructions, lastCycle, res.Cycles)
			}
			fmt.Fprintf(w, "%-16s %-4s IPC %.3f %s  MLP %.2f %s  [%s]\n",
				sp.Name, tech, res.IPC(), stats.Sparkline(ipc), res.MLP(), stats.Sparkline(mlp), status)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "interval consistency: %d/%d cells MISMATCHED\n", bad, cells)
		return fmt.Errorf("interval series disagree with end-of-run results in %d cell(s)", bad)
	}
	fmt.Fprintf(w, "interval consistency: OK (%d cells)\n", cells)
	return nil
}

// durableMatrix runs the matrix in-process, one cell at a time, with each
// cell journaling its state to <dir>/<bench>-<tech>.ckpt. A killed
// dvrbench rerun with the same flags resumes every interrupted cell from
// its journal (completed cells' journals are deleted; their work is lost
// only if the figure never rendered) and finishes bit-identically to an
// uninterrupted run.
func durableMatrix(dir string, specs []workloads.Spec, techs []experiments.Technique, cfg cpu.Config) (map[string]map[experiments.Technique]cpu.Result, error) {
	store, err := checkpoint.NewStore(dir, faults.OS())
	if err != nil {
		return nil, err
	}
	resumed := 0
	m := make(map[string]map[experiments.Technique]cpu.Result, len(specs))
	for _, sp := range specs {
		if sp.Ref.Kernel == "" {
			return nil, fmt.Errorf("benchmark %q has no declarative ref; cannot journal it", sp.Name)
		}
		ref := sp.Ref
		ref.ROI = sp.ROI
		// Checkpoint a handful of times per cell whatever its length, but
		// not so often that journal encoding dominates short runs.
		roi := sp.ROI
		if roi == 0 {
			roi = 300_000
		}
		every := roi / 5
		if every < 10_000 {
			every = 10_000
		}
		if every > 100_000 {
			every = 100_000
		}
		row := make(map[experiments.Technique]cpu.Result, len(techs))
		for _, tech := range techs {
			key := fmt.Sprintf("%s-%s", sp.Name, tech)
			opts := experiments.JobOpts{CheckpointEvery: every}
			if st, err := store.Load(key); err == nil {
				if st.Matches(api.EngineVersion, ref, string(tech), cfg) == nil {
					opts.Resume = &st.Core
					resumed++
				} else {
					// Journal from a different suite/config under the same
					// name: useless for this run.
					_ = store.Remove(key)
				}
			}
			opts.Checkpoint = func(snap *cpu.Snapshot) error {
				return store.Save(key, &checkpoint.State{
					Engine:    api.EngineVersion,
					Ref:       ref,
					Technique: string(tech),
					Config:    cfg,
					Core:      *snap,
				})
			}
			res, err := experiments.RunJob(context.Background(), sp, tech, cfg, opts)
			if err != nil {
				// Journals of unfinished cells stay behind for the rerun.
				return nil, fmt.Errorf("cell %s: %w", key, err)
			}
			_ = store.Remove(key)
			row[tech] = res
		}
		m[sp.Name] = row
	}
	if resumed > 0 {
		// To stderr so -json output stays parseable.
		fmt.Fprintf(os.Stderr, "[durable: resumed %d interrupted cell(s) from %s]\n", resumed, dir)
	}
	return m, nil
}

// serverMatrix runs a benchmark × technique matrix against a dvrd server
// via one POST /v1/batch and reshapes the response into the map the
// figure renderers consume. Every spec must carry a declarative Ref (the
// built-in suites all do). The cache-hit line it prints is what the CI
// smoke job greps to assert the second batch was served from cache.
func serverMatrix(base string, specs []workloads.Spec, techs []experiments.Technique, cfg cpu.Config) (map[string]map[experiments.Technique]cpu.Result, error) {
	refs := make([]workloads.Ref, len(specs))
	for i, sp := range specs {
		if sp.Ref.Kernel == "" {
			return nil, fmt.Errorf("benchmark %q has no declarative ref; cannot run via server", sp.Name)
		}
		ref := sp.Ref
		ref.ROI = sp.ROI
		refs[i] = ref
	}
	techNames := make([]string, len(techs))
	for i, t := range techs {
		techNames[i] = string(t)
	}
	cli := client.New(base)
	resp, err := cli.Batch(context.Background(), api.BatchRequest{
		Workloads:  refs,
		Techniques: techNames,
		Config:     &cfg,
	})
	if err != nil {
		return nil, err
	}
	if len(resp.Cells) != len(specs)*len(techs) {
		return nil, fmt.Errorf("server returned %d cells, want %d", len(resp.Cells), len(specs)*len(techs))
	}
	// A cell-level failure (a recovered worker panic, reported in place so
	// the rest of the batch completed) still fails the figure: a matrix
	// with a hole cannot be rendered.
	for i, c := range resp.Cells {
		if c.Error != nil {
			return nil, fmt.Errorf("server cell %d failed (%s): %s", i, c.Error.Code, c.Error.Error)
		}
	}
	// To stderr so -json output stays parseable.
	fmt.Fprintf(os.Stderr, "[server: %d/%d cells from cache]\n", resp.CacheHits, len(resp.Cells))
	m := make(map[string]map[experiments.Technique]cpu.Result, len(specs))
	for wi, sp := range specs {
		row := make(map[experiments.Technique]cpu.Result, len(techs))
		for ti, tech := range techs {
			row[tech] = resp.Cells[wi*len(techs)+ti].Result
		}
		m[sp.Name] = row
	}
	return m, nil
}

// gapSuite returns the GAP kernels for the ROB sweeps: over the KR input
// at full scale (the paper's headline callouts are on the GAP set), or the
// small Kronecker input with -quick.
func gapSuite(quick bool) experiments.Suite {
	if quick {
		return experiments.QuickSuite()
	}
	return experiments.GAPOnly(graphgen.Table2Inputs()[0])
}

// perfRow is one benchmark×technique measurement of the simulator itself.
type perfRow struct {
	Bench         string  `json:"bench"`
	Technique     string  `json:"technique"`
	Instructions  uint64  `json:"instructions"`
	HostMS        float64 `json:"host_ms"`
	SimMIPS       float64 `json:"sim_mips"`
	AllocsPerInst float64 `json:"allocs_per_inst"`
}

// perfRows runs every benchmark under every Figure 7 technique, one cell
// at a time (no concurrency, so host timings are clean), and reports
// simulator throughput and allocation rate per cell.
func perfRows(s experiments.Suite, cfg cpu.Config) ([]perfRow, func() string) {
	specs := s.All()
	// Warm the memoized workload images so the first measured cell does
	// not pay graph construction.
	for _, sp := range specs {
		sp.Build()
	}
	techs := append([]experiments.Technique{experiments.TechOoO}, experiments.AllTechniques...)
	var rows []perfRow
	for _, sp := range specs {
		for _, tech := range techs {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res := experiments.Run(sp, tech, cfg)
			runtime.ReadMemStats(&m1)
			rows = append(rows, perfRow{
				Bench:         sp.Name,
				Technique:     string(tech),
				Instructions:  res.Instructions,
				HostMS:        float64(res.HostNS) / 1e6,
				SimMIPS:       res.SimMIPS(),
				AllocsPerInst: float64(m1.Mallocs-m0.Mallocs) / float64(res.Instructions),
			})
		}
	}
	render := func() string {
		t := stats.NewTable("Simulator throughput (per benchmark × technique)",
			"bench", "tech", "insts", "host-ms", "simMIPS", "allocs/inst")
		for _, r := range rows {
			t.AddRow(r.Bench, r.Technique, fmt.Sprintf("%d", r.Instructions),
				r.HostMS, r.SimMIPS, fmt.Sprintf("%.4f", r.AllocsPerInst))
		}
		return t.String()
	}
	return rows, render
}

// suiteWallClock times the full Figure 7 matrix both ways — exact
// (MatrixE) and sampled (MatrixSampled) — over pre-built workloads, so the
// ratio measures simulation work, not graph construction. Sampled runs
// first: both paths then start from identically cold simulator state, and
// any process-level warmup (JIT-ish map growth, allocator steady state)
// favours the exact side, making the reported ratio conservative.
func suiteWallClock(specs []workloads.Spec, cfg cpu.Config, so experiments.SampleOptions) (exact, sampled time.Duration, err error) {
	for _, sp := range specs {
		sp.Build()
	}
	techs := append([]experiments.Technique{experiments.TechOoO}, experiments.AllTechniques...)
	t0 := time.Now()
	if _, err = experiments.MatrixSampled(context.Background(), specs, techs, cfg, so); err != nil {
		return 0, 0, err
	}
	sampled = time.Since(t0)
	t1 := time.Now()
	if _, err = experiments.MatrixE(context.Background(), specs, techs, cfg); err != nil {
		return 0, 0, err
	}
	exact = time.Since(t1)
	return exact, sampled, nil
}

// fidelityMaxTimedFrac bounds the share of profiled instructions a sampled
// matrix may time in detail: the host-independent cause of its speed-up
// (0.044 measured on the quick suite at the default fidelity ROI).
const fidelityMaxTimedFrac = 0.10

// fidelityReport is the sampled-simulation acceptance gate: it stretches
// the quick suite to a full-length ROI, renders Figure 7's per-technique
// h-mean speedups from an exact matrix and from a sampled one, and fails
// if the mean relative error exceeds tol or the sampled matrix timed more
// than fidelityMaxTimedFrac of the instructions it profiled. Both repeat
// exactly on any host; the exact/sampled wall-clock ratio the timed
// fraction buys, and the split of the sampled matrix's core-seconds into
// plan builds and replays, are printed but do not gate, because they
// depend on the runner. CI runs it as the sampled-fidelity job; the error
// metric is over h-means (the figure's headline numbers), where
// independent per-benchmark projection noise largely cancels.
func fidelityReport(w io.Writer, roi uint64, so experiments.SampleOptions, tol float64, cfg cpu.Config) error {
	specs := experiments.QuickSuite().All()
	for i := range specs {
		specs[i] = specs[i].WithROI(roi)
	}
	for _, sp := range specs {
		sp.Build()
	}
	techs := append([]experiments.Technique{experiments.TechOoO}, experiments.AllTechniques...)
	t0 := time.Now()
	sm, err := experiments.MatrixSampled(context.Background(), specs, techs, cfg, so)
	if err != nil {
		return err
	}
	sampDur := time.Since(t0)
	t1 := time.Now()
	em, err := experiments.MatrixE(context.Background(), specs, techs, cfg)
	if err != nil {
		return err
	}
	exactDur := time.Since(t1)

	hmean := func(m map[string]map[experiments.Technique]cpu.Result, tech experiments.Technique) float64 {
		var sp []float64
		for _, s := range specs {
			sp = append(sp, experiments.Speedup(m[s.Name][experiments.TechOoO], m[s.Name][tech]))
		}
		return stats.HarmonicMean(sp)
	}
	t := stats.NewTable(fmt.Sprintf("Sampled fidelity (%d benchmarks, ROI %d)", len(specs), roi),
		"tech", "exact h-mean", "sampled h-mean", "error")
	var sumErr float64
	for _, tech := range experiments.AllTechniques {
		he, hs := hmean(em, tech), hmean(sm, tech)
		e := (hs - he) / he
		if e < 0 {
			e = -e
		}
		sumErr += e
		t.AddRow(string(tech), he, hs, fmt.Sprintf("%.2f%%", 100*e))
	}
	meanErr := sumErr / float64(len(experiments.AllTechniques))
	var timed, profiled uint64
	for _, row := range sm {
		for _, res := range row {
			timed += res.Sampled.SimulatedInsts
			profiled += res.Sampled.ProfiledInsts
		}
	}
	timedFrac := float64(timed) / float64(profiled)
	// Where the sampled matrix's host time goes. A cell's HostNS covers its
	// replay only; what a lone RunSampled takes beyond that is its plan.
	var planDur, replayDur time.Duration
	for _, row := range sm {
		for _, res := range row {
			replayDur += time.Duration(res.HostNS)
		}
	}
	for _, sp := range specs {
		t2 := time.Now()
		res, err := experiments.RunSampled(context.Background(), sp, experiments.TechOoO, cfg, so)
		if err != nil {
			return err
		}
		planDur += time.Since(t2) - time.Duration(res.HostNS)
	}
	fmt.Fprintln(w, t.String())
	fmt.Fprintf(w, "mean h-mean speedup error: %.2f%% (tolerance %.2f%%)\n", 100*meanErr, 100*tol)
	fmt.Fprintf(w, "timed-instruction fraction: %.3f (maximum %.2f)\n", timedFrac, fidelityMaxTimedFrac)
	fmt.Fprintf(w, "suite wall-clock: exact %s, sampled %s (%.1fx, not gated)\n",
		exactDur.Round(time.Millisecond), sampDur.Round(time.Millisecond), float64(exactDur)/float64(sampDur))
	fmt.Fprintf(w, "sampled core-seconds: %d plans %.2f, %d replays %.2f (not gated)\n",
		len(specs), planDur.Seconds(), len(specs)*len(techs), replayDur.Seconds())
	if meanErr > tol {
		return fmt.Errorf("fidelity: mean speedup error %.2f%% exceeds tolerance %.2f%%", 100*meanErr, 100*tol)
	}
	if timedFrac > fidelityMaxTimedFrac {
		return fmt.Errorf("fidelity: timed-instruction fraction %.3f above maximum %.2f", timedFrac, fidelityMaxTimedFrac)
	}
	fmt.Fprintln(w, "fidelity: OK")
	return nil
}

// writePerfJSON writes the perf rows as indented JSON, the machine-readable
// artifact the perf-regression guard compares against.
func writePerfJSON(path string, rows []perfRow) error {
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

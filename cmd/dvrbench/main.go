// Command dvrbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dvrbench [flags] name...
//
// A name is a registered figure (experiments.Figures, then
// experiments.Studies), "all" for every figure of the paper, or one of
// the intervals and fidelity reports; `dvrbench -h` lists them. Flags may
// come before, between or after the names. With -quick, a scaled-down
// suite runs in seconds; without it, the full Table 2 inputs and the
// paper's ROIs are used (minutes).
//
// Every figure runs its jobs through one runner the flags pick: RunAll in
// process (the default), sampled (-sampled), one job at a time with its
// own journal (-checkpoint-dir) or its own event recorder (-trace, one
// Perfetto JSON per job), or through a dvrd server (-server). Traced and
// journalled per-job files are named <bench>-<tech>, suffixed with the
// job's index in its figure when the figure runs that pair under several
// configs. Results, and so the tables, are bit-identical whichever runner
// ran them. Output is the figures' tables as text, or with -json one JSON
// document per name: the list of its tables.
//
// The intervals report runs the suite under ooo, vr and dvr with the
// interval sampler attached and prints per-cell IPC/MLP sparklines plus a
// consistency line asserting the sampled series sums back to the
// end-of-run Result. -cpuprofile/-memprofile write pprof profiles of
// whatever ran.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"dvr/internal/checkpoint"
	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/faults"
	"dvr/internal/service/api"
	"dvr/internal/service/client"
	"dvr/internal/stats"
	"dvr/internal/trace"
	"dvr/internal/workloads"
)

func main() {
	quick := flag.Bool("quick", false, "run the scaled-down suite")
	jsonOut := flag.Bool("json", false, "emit each name's tables as one JSON document instead of text")
	server := flag.String("server", "", "run the figures' jobs against this dvrd server instead of in-process")
	ckptDir := flag.String("checkpoint-dir", "", "journal every job to this directory so a killed run resumes instead of restarting")
	traceDir := flag.String("trace", "", "write one Perfetto trace-event JSON per job to this directory")
	sampled := flag.Bool("sampled", false, "project results from phase-representative windows instead of timing full ROIs")
	sWindow := flag.Uint64("sample-window", 0, "with -sampled, profiling window length in instructions (0 = auto from ROI)")
	sWarmup := flag.Uint64("warmup", 0, "with -sampled, timed-but-discarded warmup per measured window (0 = one window)")
	sPhases := flag.Int("sample-phases", 0, "with -sampled, maximum phase clusters (0 = default)")
	sReps := flag.Int("sample-reps", 0, "with -sampled, representative windows timed per phase (0 = one)")
	fidROI := flag.Uint64("fidelity-roi", 2_000_000, "fidelity: ROI the quick-suite benchmarks are stretched to")
	fidTol := flag.Float64("fidelity-tol", 0.02, "fidelity: max mean per-technique h-mean speedup error")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Usage = usage
	names, _ := parseArgs(flag.CommandLine, os.Args[1:]) // exits on a bad flag
	if len(names) == 0 {
		names = []string{"all"}
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
	reports := map[string]func() error{
		"intervals": func() error { return intervalsReport(os.Stdout, suite(), cfg) },
		"fidelity":  func() error { return fidelityReport(os.Stdout, *fidROI, so, *fidTol, cfg) },
	}
	for _, name := range names {
		if figures(name) == nil && reports[name] == nil {
			fmt.Fprintf(os.Stderr, "dvrbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}
	run, err := pickRunner(*server, *ckptDir, *traceDir, *sampled, so)
	if err != nil {
		fatal(err)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
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

	// The timing lines go to stderr under -json, so stdout is JSON only.
	timings := io.Writer(os.Stdout)
	if *jsonOut {
		timings = os.Stderr
	}
	took := func(name string, start time.Time) {
		fmt.Fprintf(timings, "[%s took %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	for _, name := range names {
		if report := reports[name]; report != nil {
			start := time.Now()
			if err := report(); err != nil {
				fatal(err)
			}
			took(name, start)
			continue
		}
		var doc []experiments.Table
		for _, f := range figures(name) {
			start := time.Now()
			jobs := f.Jobs(suite(), cfg)
			var res []cpu.Result
			if len(jobs) > 0 {
				if res, err = run(context.Background(), jobs); err != nil {
					fatal(err)
				}
			}
			tables := f.Tables(jobs, res)
			doc = append(doc, tables...)
			if !*jsonOut {
				text := make([]string, len(tables))
				for i, t := range tables {
					text[i] = t.String()
				}
				fmt.Println(strings.Join(text, "\n"))
			}
			took(f.Name, start)
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(doc); err != nil {
				fatal(err)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dvrbench:", err)
	os.Exit(1)
}

// figures resolves a name to the registered figures it runs: "all" to the
// paper's, a figure's name to that figure, anything else to nil.
func figures(name string) []experiments.Figure {
	if name == "all" {
		return experiments.Figures
	}
	for _, f := range slices.Concat(experiments.Figures, experiments.Studies) {
		if f.Name == name {
			return []experiments.Figure{f}
		}
	}
	return nil
}

func usage() {
	var names []string
	for _, f := range slices.Concat(experiments.Figures, experiments.Studies) {
		names = append(names, f.Name)
	}
	fmt.Fprintf(flag.CommandLine.Output(), "usage: dvrbench [flags] %s|all|intervals|fidelity ...\n",
		strings.Join(names, "|"))
	flag.PrintDefaults()
}

// parseArgs parses fs's flags wherever they appear among args, re-parsing
// after each positional argument, and returns the positional arguments in
// order.
func parseArgs(fs *flag.FlagSet, args []string) ([]string, error) {
	var names []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		if fs.NArg() == 0 {
			return names, nil
		}
		names = append(names, fs.Arg(0))
		args = fs.Args()[1:]
	}
}

// runner runs a figure's jobs and returns their results in job order.
type runner func(ctx context.Context, jobs []experiments.Job) ([]cpu.Result, error)

// pickRunner returns the runner the flags ask for. -server, -checkpoint-dir
// and -trace are mutually exclusive (the server has its own checkpoint
// directory, and tracing runs jobs one at a time in-process), and sampling
// replaces the single continuous run they wrap.
func pickRunner(server, ckptDir, traceDir string, sampled bool, so experiments.SampleOptions) (runner, error) {
	set := 0
	for _, f := range []string{server, ckptDir, traceDir} {
		if f != "" {
			set++
		}
	}
	switch {
	case sampled && set > 0:
		return nil, errors.New("-sampled cannot be combined with -server, -checkpoint-dir or -trace")
	case set > 1:
		return nil, errors.New("-server, -checkpoint-dir and -trace are mutually exclusive")
	case server != "":
		return serverRunner(server), nil
	case ckptDir != "":
		return journalled(ckptDir), nil
	case traceDir != "":
		return traced(traceDir), nil
	case sampled:
		return func(ctx context.Context, jobs []experiments.Job) ([]cpu.Result, error) {
			for i := range jobs {
				jobs[i].Sample = &so
			}
			return experiments.RunAll(ctx, jobs)
		}, nil
	}
	return experiments.RunAll, nil
}

// cellNames names each job's per-job files <bench>-<tech>, suffixed with
// -<index> when another job of the list runs the same benchmark and
// technique (ROB sweeps and ablations run one pair under several configs,
// and may repeat a job).
func cellNames(jobs []experiments.Job) []string {
	names := make([]string, len(jobs))
	count := make(map[string]int)
	for i, j := range jobs {
		names[i] = fmt.Sprintf("%s-%s", j.Spec.Name, j.Tech)
		count[names[i]]++
	}
	for i, n := range names {
		if count[n] > 1 {
			names[i] = fmt.Sprintf("%s-%d", n, i)
		}
	}
	return names
}

// eachJob runs the jobs in-process one at a time, in order, through run,
// which is handed each job's cell name.
func eachJob(jobs []experiments.Job, run func(j experiments.Job, name string) (cpu.Result, error)) ([]cpu.Result, error) {
	names := cellNames(jobs)
	res := make([]cpu.Result, len(jobs))
	for i, j := range jobs {
		var err error
		if res[i], err = run(j, names[i]); err != nil {
			return nil, fmt.Errorf("cell %s: %w", names[i], err)
		}
	}
	return res, nil
}

// refOf returns the declarative ref a journal or a dvrd server needs for
// a job's benchmark (the built-in suites all carry one).
func refOf(sp workloads.Spec) (workloads.Ref, error) {
	if sp.Ref.Kernel == "" {
		return workloads.Ref{}, fmt.Errorf("benchmark %q has no declarative ref", sp.Name)
	}
	ref := sp.Ref
	ref.ROI = sp.ROI
	return ref, nil
}

// traced runs each job with an event recorder attached and writes one
// Perfetto trace-event JSON per job to <dir>/<cell name>.json. Jobs run one
// at a time so each recording reflects one undisturbed run. Tracing is
// observational: the results are bit-identical to untraced runs.
func traced(dir string) runner {
	return func(ctx context.Context, jobs []experiments.Job) ([]cpu.Result, error) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		res, err := eachJob(jobs, func(j experiments.Job, name string) (cpu.Result, error) {
			j.Trace = trace.New(trace.Config{Events: 65536})
			res, err := experiments.Run(ctx, j)
			if err != nil {
				return res, err
			}
			f, err := os.Create(filepath.Join(dir, name+".json"))
			if err != nil {
				return res, err
			}
			err = j.Trace.WritePerfetto(f, fmt.Sprintf("%s (%s)", j.Spec.Name, j.Tech))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return res, err
		})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "[trace: wrote %d Perfetto files to %s]\n", len(jobs), dir)
		return res, nil
	}
}

// intervalTechs are the techniques the intervals subcommand samples: the
// baseline and the two runahead designs the paper's time-series figures
// contrast.
var intervalTechs = []experiments.Technique{experiments.TechOoO, experiments.TechVR, experiments.TechDVR}

// intervalsReport runs the suite with the interval sampler attached and
// prints one line per cell — IPC and MLP sparklines over ~16 intervals —
// followed by a consistency line. Consistency is experiments.CheckIntervals:
// the series tiles the run and its counter deltas sum back to the
// end-of-run Result. A mismatch is an error (the CI trace-smoke job greps
// for the OK line).
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
			job := experiments.Job{Spec: sp, Tech: tech, Cfg: cfg}
			job.Trace = trace.New(trace.Config{IntervalEvery: every})
			res, err := experiments.Run(context.Background(), job)
			if err != nil {
				return fmt.Errorf("cell %s-%s: %w", sp.Name, tech, err)
			}
			ivs := job.Trace.Intervals()
			ipc := make([]float64, 0, len(ivs))
			mlp := make([]float64, 0, len(ivs))
			for _, iv := range ivs {
				ipc = append(ipc, iv.IPC)
				mlp = append(mlp, iv.MLP)
			}
			cells++
			status := "ok"
			if err := experiments.CheckIntervals(res, ivs); err != nil {
				bad++
				status = "MISMATCH " + err.Error()
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

// journalled runs each job in-process, one at a time, journalling its
// state to <dir>/<cell name>.ckpt. A killed dvrbench rerun with the same
// flags resumes every interrupted job from its journal (a finished job's
// journal is deleted; its work is lost only if the figure never rendered)
// and finishes bit-identically to an uninterrupted run.
func journalled(dir string) runner {
	return func(ctx context.Context, jobs []experiments.Job) ([]cpu.Result, error) {
		store, err := checkpoint.NewStore(dir, faults.OS())
		if err != nil {
			return nil, err
		}
		res, err := eachJob(jobs, func(j experiments.Job, key string) (cpu.Result, error) {
			ref, err := refOf(j.Spec)
			if err != nil {
				return cpu.Result{}, err
			}
			j.CheckpointEvery = checkpoint.Cadence(j.Spec.ROI)
			return store.Journal(key, api.EngineVersion, ref, string(j.Tech), j.Cfg).Run(
				func(resume *cpu.Snapshot, save func(*cpu.Snapshot) error) (cpu.Result, error) {
					j.Resume, j.Checkpoint = resume, save
					return experiments.Run(ctx, j)
				})
		})
		if err != nil {
			return nil, err
		}
		if n := store.Resumed(); n > 0 {
			fmt.Fprintf(os.Stderr, "[durable: resumed %d interrupted cell(s) from %s]\n", n, dir)
		}
		return res, nil
	}
}

// serverRunner runs the jobs against a dvrd server: one explicit-cells
// POST /v1/batch per distinct config, in order of first appearance. The
// cache-hit line it prints is what the CI smoke jobs grep to assert a
// repeated figure was served from cache.
func serverRunner(base string) runner {
	cli := client.New(base)
	return func(ctx context.Context, jobs []experiments.Job) ([]cpu.Result, error) {
		var batches [][]int // job indices per distinct config
		for i, j := range jobs {
			b := slices.IndexFunc(batches, func(b []int) bool { return reflect.DeepEqual(jobs[b[0]].Cfg, j.Cfg) })
			if b < 0 {
				b, batches = len(batches), append(batches, nil)
			}
			batches[b] = append(batches[b], i)
		}
		res := make([]cpu.Result, len(jobs))
		hits := 0
		for _, b := range batches {
			cfg := jobs[b[0]].Cfg
			req := api.BatchRequest{Config: &cfg}
			for _, i := range b {
				ref, err := refOf(jobs[i].Spec)
				if err != nil {
					return nil, fmt.Errorf("%w; cannot run via server", err)
				}
				req.Cells = append(req.Cells, api.CellRequest{Workload: ref, Technique: string(jobs[i].Tech)})
			}
			resp, err := cli.Batch(ctx, req)
			if err != nil {
				return nil, err
			}
			if len(resp.Cells) != len(b) {
				return nil, fmt.Errorf("server returned %d cells, want %d", len(resp.Cells), len(b))
			}
			// A cell-level failure (a recovered worker panic, reported in
			// place so the rest of the batch completed) still fails the
			// figure: a table with a hole cannot be rendered.
			for k, c := range resp.Cells {
				if c.Error != nil {
					return nil, fmt.Errorf("server cell %d failed (%s): %s", b[k], c.Error.Code, c.Error.Error)
				}
				res[b[k]] = c.Result
			}
			hits += resp.CacheHits
		}
		fmt.Fprintf(os.Stderr, "[server: %d/%d cells from cache]\n", hits, len(jobs))
		return res, nil
	}
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
// independent per-benchmark projection noise largely cancels. The per-cell
// errors that cancellation hides, and how often the exact cycles fall
// inside the projection's CI95, are printed beside it without gating.
func fidelityReport(w io.Writer, roi uint64, so experiments.SampleOptions, tol float64, cfg cpu.Config) error {
	specs := experiments.QuickSuite().All()
	for i := range specs {
		specs[i] = specs[i].WithROI(roi)
	}
	for _, sp := range specs {
		sp.Build()
	}
	techs := append([]experiments.Technique{experiments.TechOoO}, experiments.AllTechniques...)
	var exact, sampled []experiments.Job
	for _, sp := range specs {
		for _, tech := range techs {
			exact = append(exact, experiments.Job{Spec: sp, Tech: tech, Cfg: cfg})
			sampled = append(sampled, experiments.Job{Spec: sp, Tech: tech, Cfg: cfg, Sample: &so})
		}
	}
	t0 := time.Now()
	sm, err := experiments.RunAll(context.Background(), sampled)
	if err != nil {
		return err
	}
	sampDur := time.Since(t0)
	t1 := time.Now()
	em, err := experiments.RunAll(context.Background(), exact)
	if err != nil {
		return err
	}
	exactDur := time.Since(t1)

	// hmean is tech's h-mean speedup over the OoO baseline, techs[0].
	hmean := func(res []cpu.Result, tech experiments.Technique) float64 {
		k := slices.Index(techs, tech)
		var sp []float64
		for i := 0; i < len(res); i += len(techs) {
			sp = append(sp, experiments.Speedup(res[i], res[i+k]))
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
	for _, res := range sm {
		timed += res.Sampled.SimulatedInsts
		profiled += res.Sampled.ProfiledInsts
	}
	timedFrac := float64(timed) / float64(profiled)
	// Where the sampled matrix's host time goes. A cell's HostNS covers its
	// replay only; what a lone sampled Run takes beyond that is its plan.
	var planDur, replayDur time.Duration
	for _, res := range sm {
		replayDur += time.Duration(res.HostNS)
	}
	for _, sp := range specs {
		t2 := time.Now()
		res, err := experiments.Run(context.Background(), experiments.Job{Spec: sp, Tech: experiments.TechOoO, Cfg: cfg, Sample: &so})
		if err != nil {
			return err
		}
		planDur += time.Since(t2) - time.Duration(res.HostNS)
	}
	fmt.Fprintln(w, t.String())
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
	}
	writeCellFidelity(w, names, techs, em, sm)
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

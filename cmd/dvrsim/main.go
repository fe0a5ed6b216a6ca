// Command dvrsim runs one benchmark under one technique and prints the
// full statistics block.
//
// Usage:
//
//	dvrsim -bench bfs -input KR -tech dvr [-rob 350] [-roi 300000]
//	dvrsim -bench bfs -tech dvr -checkpoint bfs.ckpt [-watchdog 2000000]
//	dvrsim -bench bfs -tech dvr -trace bfs.json -interval 10000 [-interval-out ivs.csv]
//	dvrsim -list
//
// -checkpoint journals the run's full state to a .ckpt file a few times
// per run (checkpoint.Cadence of the ROI); after a kill, the same command
// line picks the run back up from the journal and finishes with results
// bit-identical to an uninterrupted run. -watchdog aborts a run that
// commits nothing for N cycles and dumps pipeline forensics.
//
// -trace writes a Perfetto / chrome://tracing JSON of the run (main
// pipeline, runahead subthread and memory hierarchy as separate tracks);
// -trace-events bounds its event ring. -interval samples IPC/MLP/prefetch
// telemetry every N committed instructions and prints the interval table
// with sparklines; -interval-out additionally dumps the series to a file
// (.csv for CSV, anything else for JSON). Tracing is observational: the
// printed Result is bit-identical with and without it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"dvr/internal/checkpoint"
	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/graphgen"
	"dvr/internal/mem"
	"dvr/internal/service/api"
	"dvr/internal/stats"
	"dvr/internal/trace"
	"dvr/internal/workloads"
)

func main() {
	var (
		benchName = flag.String("bench", "bfs", "benchmark: "+strings.Join(workloads.Kernels(), ","))
		inputName = flag.String("input", "KR", "graph input for graph kernels: "+strings.Join(graphInputs(), ","))
		techName  = flag.String("tech", "dvr", "technique: "+techniques(","))
		rob       = flag.Int("rob", 350, "reorder-buffer size")
		roi       = flag.Uint64("roi", 300_000, "timed instructions")
		pipeline  = flag.Uint64("pipeline", 0, "print pipeline timing for the first N instructions")
		traceFile = flag.String("trace", "", "write a Perfetto/Chrome trace-event JSON of the run to this file")
		traceEvts = flag.Int("trace-events", 65536, "event-ring capacity for -trace (oldest events drop once full)")
		interval  = flag.Uint64("interval", 0, "sample interval telemetry every N committed instructions and print the interval table (0 = off)")
		ivOut     = flag.String("interval-out", "", "with -interval, also dump the series to this file (.csv = CSV, otherwise JSON)")
		mshrs     = flag.Int("mshrs", 24, "L1-D MSHR count")
		bwCycles  = flag.Uint64("bw", 5, "DRAM cycles per 64 B line (5 = 51.2 GB/s at 4 GHz)")
		sampled   = flag.Bool("sampled", false, "sampled simulation: phase-profile the ROI, time one representative window per phase, extrapolate")
		sWindow   = flag.Uint64("sample-window", 0, "with -sampled, profiling window length in instructions (0 = auto from ROI)")
		sWarmup   = flag.Uint64("warmup", 0, "with -sampled, timed-but-discarded warmup instructions before each measured window (0 = one window)")
		sPhases   = flag.Int("sample-phases", 0, "with -sampled, maximum phase clusters (0 = default)")
		sReps     = flag.Int("sample-reps", 0, "with -sampled, representative windows timed per phase (0 = one)")
		list      = flag.Bool("list", false, "list benchmarks and techniques")
		ckptFile  = flag.String("checkpoint", "", "journal the run's state to this .ckpt file; a rerun resumes from it after a kill")
		watchdog  = flag.Uint64("watchdog", 0, "abort if nothing commits for N cycles, with a livelock forensics dump (0 = off)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dvrsim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dvrsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dvrsim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dvrsim:", err)
			}
		}()
	}

	if *list {
		fmt.Println("benchmarks: " + strings.Join(workloads.Kernels(), " "))
		fmt.Println("inputs:     " + strings.Join(graphInputs(), " ") + " (graph kernels)")
		fmt.Println("techniques: " + techniques(" "))
		return
	}

	spec, err := findSpec(*benchName, *inputName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvrsim:", err)
		os.Exit(1)
	}
	spec = spec.WithROI(*roi)

	cfg := cpu.DefaultConfig().WithROB(*rob)
	cfg.Mem.MSHRs = *mshrs
	cfg.Mem.DRAMCyclesPerLine = *bwCycles
	tech := experiments.Technique(*techName)
	if *pipeline > 0 {
		runPipeline(spec, tech, cfg, *pipeline)
		return
	}
	var rec *trace.Recorder
	if *traceFile != "" || *interval > 0 {
		tc := trace.Config{IntervalEvery: *interval}
		if *traceFile != "" {
			tc.Events = *traceEvts
		}
		rec = trace.New(tc)
	}
	job := experiments.Job{Spec: spec, Tech: tech, Cfg: cfg}
	job.WatchdogBudget, job.Trace = *watchdog, rec
	if *sampled {
		// Run refuses sampling with -checkpoint, -trace or -interval.
		job.Sample = &experiments.SampleOptions{
			WindowInsts: *sWindow,
			WarmupInsts: *sWarmup,
			MaxPhases:   *sPhases,
			Replicates:  *sReps,
		}
	}
	res := runJob(job, *ckptFile)

	fmt.Printf("benchmark    %s\n", res.Name)
	fmt.Printf("technique    %s\n", res.Technique)
	fmt.Printf("instructions %d\n", res.Instructions)
	fmt.Printf("cycles       %d\n", res.Cycles)
	fmt.Printf("IPC          %.4f\n", res.IPC())
	fmt.Printf("host time    %.1f ms (%.2f simMIPS)\n", float64(res.HostNS)/1e6, res.SimMIPS())
	if sp := res.Sampled; sp != nil {
		fmt.Printf("sampled      %d phases over %d windows of %d insts (warmup %d)\n",
			sp.Phases, sp.Windows, sp.WindowInsts, sp.WarmupInsts)
		fmt.Printf("             timed %d of %d insts (%.1fx detail saving), cycles CI95 ±%.2f%%\n",
			sp.SimulatedInsts, sp.ProfiledInsts,
			float64(sp.ProfiledInsts)/float64(sp.SimulatedInsts), 100*sp.CyclesCI95Rel)
	}
	fmt.Printf("MLP          %.2f MSHRs/cycle\n", res.MLP())
	fmt.Printf("ROB stall    %.1f%%\n", 100*res.ROBStallFrac())
	fmt.Printf("commit hold  %d cycles (delayed termination)\n", res.CommitHoldCycles)
	fmt.Printf("branches     %d (%.2f%% mispredicted)\n", res.BranchLookups, 100*res.MispredictRate())
	fmt.Printf("loads/stores %d / %d\n", res.Loads, res.Stores)
	fmt.Printf("LLC MPKI     %.2f (demand)\n", res.LLCMPKI())
	st := res.Mem
	fmt.Printf("demand hits  L1=%d L2=%d L3=%d Mem=%d merged=%d\n",
		st.DemandHits[mem.LvlL1], st.DemandHits[mem.LvlL2], st.DemandHits[mem.LvlL3], st.DemandHits[mem.LvlMem], st.DemandMerged)
	fmt.Printf("DRAM         demand=%d stride-pf=%d runahead=%d imp=%d oracle=%d writebacks=%d\n",
		st.DRAMAccesses[mem.SrcDemand], st.DRAMAccesses[mem.SrcStridePF], st.DRAMAccesses[mem.SrcRunahead],
		st.DRAMAccesses[mem.SrcIMP], st.DRAMAccesses[mem.SrcOracle], st.Writebacks)
	fmt.Printf("prefetches   issued=%d useful@L1=%d @L2=%d @L3=%d late=%d unused-evict=%d\n",
		st.TotalPrefIssued(), st.PrefUsefulAt[mem.LvlL1], st.PrefUsefulAt[mem.LvlL2], st.PrefUsefulAt[mem.LvlL3],
		sum4(st.PrefLate), sum4(st.PrefUnusedEvict))
	fmt.Printf("miss latency %.1f cycles avg (demand); commit held %.2f%% of cycles\n",
		res.AvgDemandMissCycles, 100*res.CommitHoldFrac)
	e := res.Engine
	if e.Episodes > 0 || e.Prefetches > 0 {
		fmt.Printf("engine       episodes=%d prefetches=%d vector-uops=%d discovery=%d nested=%d timeouts=%d avg-lanes=%.1f\n",
			e.Episodes, e.Prefetches, e.VectorUops, e.DiscoveryModes, e.NestedModes, e.Timeouts, e.LanesVectorize)
	}
	if rec != nil {
		emitTrace(rec, res, *traceFile, *interval, *ivOut)
	}
}

// emitTrace writes the post-run telemetry the -trace/-interval flags asked
// for: the Perfetto file, the interval table with sparklines, and the
// optional CSV/JSON interval dump.
func emitTrace(rec *trace.Recorder, res cpu.Result, traceFile string, interval uint64, ivOut string) {
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dvrsim:", err)
			os.Exit(1)
		}
		name := fmt.Sprintf("%s (%s)", res.Name, res.Technique)
		if err := rec.WritePerfetto(f, name); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dvrsim:", err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace        %s (%d events, %d dropped)\n", traceFile, len(rec.Events()), rec.Dropped())
	}
	ivs := rec.Intervals()
	if interval > 0 && len(ivs) > 0 {
		t := stats.NewTable(fmt.Sprintf("Interval telemetry (%d insts/interval)", interval),
			"ivl", "insts", "cycles", "IPC", "MLP", "pf-acc", "pf-cov", "pf-time", "ra-occ", "stall")
		var ipc, mlp []float64
		for _, iv := range ivs {
			t.AddRow(fmt.Sprintf("%d", iv.Index), fmt.Sprintf("%d", iv.EndInst-iv.StartInst),
				fmt.Sprintf("%d", iv.EndCycle-iv.StartCycle), iv.IPC, iv.MLP,
				iv.PrefAccuracy, iv.PrefCoverage, iv.PrefTimeliness, iv.RunaheadOccupancy, iv.ROBStallFrac)
			ipc = append(ipc, iv.IPC)
			mlp = append(mlp, iv.MLP)
		}
		fmt.Println()
		fmt.Println(t.String())
		fmt.Printf("IPC %s\nMLP %s\n", stats.Sparkline(ipc), stats.Sparkline(mlp))
	}
	if ivOut != "" {
		f, err := os.Create(ivOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dvrsim:", err)
			os.Exit(1)
		}
		if strings.HasSuffix(ivOut, ".csv") {
			err = trace.WriteIntervalsCSV(f, ivs)
		} else {
			err = trace.WriteDumpJSON(f, trace.Dump{
				Bench: res.Name, Technique: res.Technique, IntervalInsts: interval, Intervals: ivs,
			})
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dvrsim:", err)
			os.Exit(1)
		}
		fmt.Printf("intervals    %s (%d intervals)\n", ivOut, len(ivs))
	}
}

// runJob runs the job, journalled to ckptFile when one is named: the
// <name>.ckpt file of a checkpoint store in its directory. After a kill,
// the same command line resumes from the journal when it names this run;
// the journal goes once the run completes or livelocks. A watchdog trip
// prints the typed livelock error plus its forensics dump and exits 3.
func runJob(job experiments.Job, ckptFile string) cpu.Result {
	var journal *checkpoint.Journal
	if ckptFile != "" {
		var store *checkpoint.Store
		key, ok := strings.CutSuffix(filepath.Base(ckptFile), ".ckpt")
		err := fmt.Errorf("-checkpoint %q must name a .ckpt file", ckptFile)
		if ok && key != "" {
			store, err = checkpoint.NewStore(filepath.Dir(ckptFile), nil)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dvrsim:", err)
			os.Exit(1)
		}
		journal = store.Journal(key, api.EngineVersion, job.Spec.Ref, string(job.Tech), job.Cfg)
		job.CheckpointEvery = checkpoint.Cadence(job.Spec.ROI)
	}
	res, err := journal.Run(func(resume *cpu.Snapshot, save func(*cpu.Snapshot) error) (cpu.Result, error) {
		if resume != nil {
			fmt.Fprintf(os.Stderr, "dvrsim: resuming at instruction %d\n", resume.Seq)
		}
		job.Resume, job.Checkpoint = resume, save
		return experiments.Run(context.Background(), job)
	})
	if err != nil {
		var le *cpu.LivelockError
		if errors.As(err, &le) {
			fmt.Fprintln(os.Stderr, "dvrsim:", err)
			if dump, jerr := json.MarshalIndent(le, "", "  "); jerr == nil {
				fmt.Fprintln(os.Stderr, string(dump))
			}
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "dvrsim:", err)
		os.Exit(1)
	}
	return res
}

// runPipeline replays the run with a pipeline-timing trace on stdout
// (the -pipeline debugging aid; structured tracing is -trace/-interval).
// It builds its own core because the per-instruction timing hook is not
// part of a Job.
func runPipeline(spec workloads.Spec, tech experiments.Technique, cfg cpu.Config, n uint64) {
	build, err := experiments.Lookup(tech)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvrsim:", err)
		os.Exit(1)
	}
	w := spec.Build()
	fe := w.Frontend()
	core := cpu.NewCore(cfg, fe)
	if eng := build(fe, w, core.Hierarchy(), cfg); eng != nil {
		core.Attach(eng)
	}
	fmt.Printf("%-6s %-4s %-28s %8s %8s %8s %8s %8s\n", "seq", "pc", "inst", "disp", "ready", "issue", "done", "commit")
	code := w.Prog.Code
	core.Trace(n, func(seq uint64, pc int, disp, ready, issue, done, commit uint64) {
		fmt.Printf("%-6d %-4d %-28s %8d %8d %8d %8d %8d\n", seq, pc, code[pc].String(), disp, ready, issue, done, commit)
	})
	res := core.Run(n)
	fmt.Printf("\nIPC %.3f over %d instructions\n", res.IPC(), res.Instructions)
}

// techniques lists the registered technique names joined by sep.
func techniques(sep string) string {
	var names []string
	for _, t := range experiments.Techniques() {
		names = append(names, string(t))
	}
	return strings.Join(names, sep)
}

func sum4(a [5]uint64) uint64 {
	var t uint64
	for _, v := range a {
		t += v
	}
	return t
}

// graphInputs lists the Table 2 graph inputs by name.
func graphInputs() []string {
	var names []string
	for _, p := range graphgen.Table2Params() {
		names = append(names, p.Name)
	}
	return names
}

// findSpec resolves a registered kernel, on the Table 2 graph input named
// input (any case) when the kernel takes a graph.
func findSpec(bench, input string) (workloads.Spec, error) {
	if !slices.Contains(workloads.Kernels(), bench) {
		return workloads.Spec{}, fmt.Errorf("unknown benchmark %q", bench)
	}
	if sp, err := workloads.Resolve(workloads.Ref{Kernel: bench}); err == nil {
		return sp, nil
	}
	for _, p := range graphgen.Table2Params() {
		if strings.EqualFold(p.Name, input) {
			return workloads.Resolve(workloads.Ref{Kernel: bench, Graph: &p})
		}
	}
	return workloads.Spec{}, fmt.Errorf("unknown graph input %q", input)
}

package main

// metricDef declares one metric: its unit, which direction is better, and
// for a per-layer metric the end-to-end metric and workload it is expected
// to move (every metric is predicted flat on workloads not named). Bound is
// the share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
	Moves  string
}

// The workloads, in run order.
const (
	wlMatrixExact   = "matrix-exact"
	wlMatrixSampled = "matrix-sampled"
	wlServeWarm     = "serve-warm"
	wlFleetCold     = "fleet-cold"
)

type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{wlMatrixExact, "13 kernels x 6 techniques timed exactly in-process: interp, cpu, mem, bpred, calendar and the engines do all the work, sampling and the service none"},
	{wlMatrixSampled, "the same cells projected by sampling: profile pass, warming and CoW boundary states dominate, so a gain for exact timing that costs the warm or record path shows here"},
	{wlServeWarm, "one real dvrd answering cache hits over HTTP: decode, CacheKey, cache read, encode and HTTP do everything, the simulator nothing"},
	{wlFleetCold, "real frontend + 2 workers running never-cached async jobs: every write path runs (ledger append, checkpoint save, spill, spans, stream publish)"},
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. What one op and one batch are per workload is
// documented in README.md.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "sim_mips", Unit: "MIPS", Better: "higher", Bound: 0.20},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer metrics of a traced run. A metric reads 0
// on a workload whose traced run does not exercise its layer.
var perLayer = []metricDef{
	{Name: "graphgen.generate_ms", Unit: "ms", Better: "lower", Moves: "setup_s (matrix-*)"},
	{Name: "workloads.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s (matrix-*)"},
	{Name: "workloads.fork_us", Unit: "us", Better: "lower", Moves: "sim_mips matrix-exact"},

	{Name: "interp.step_ns", Unit: "ns", Better: "lower", Moves: "sim_mips matrix-exact; wall_s matrix-sampled"},
	{Name: "interp.clone_us", Unit: "us", Better: "lower", Moves: "sim_mips matrix-exact"},

	{Name: "mem.access_l1_ns", Unit: "ns", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "mem.access_l2_ns", Unit: "ns", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "mem.access_l3_ns", Unit: "ns", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "mem.access_dram_ns", Unit: "ns", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "mem.prefetch_ns", Unit: "ns", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "mem.warm_ns", Unit: "ns", Better: "lower", Moves: "wall_s matrix-sampled"},
	{Name: "mem.accesses_per_inst", Unit: "ratio", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "mem.l1_hit_ratio", Unit: "ratio", Better: "higher", Moves: "sim_mips matrix-exact"},

	{Name: "bpred.predict_update_ns", Unit: "ns", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "bpred.warm_ns", Unit: "ns", Better: "lower", Moves: "wall_s matrix-sampled"},
	{Name: "bpred.mispredict_ratio", Unit: "ratio", Better: "lower", Moves: "none (model statistic)"},

	{Name: "calendar.reserve_ns", Unit: "ns", Better: "lower", Moves: "sim_mips matrix-exact"},

	{Name: "cpu.ooo_ns_per_inst", Unit: "ns", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "cpu.self_ns_per_inst", Unit: "ns", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "cpu.allocs_per_inst", Unit: "count", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "cpu.sim_insts", Unit: "count", Better: "higher", Moves: "none (must repeat exactly)"},
	{Name: "cpu.sim_cycles", Unit: "count", Better: "lower", Moves: "none (must repeat exactly)"},

	{Name: "runahead.pre.host_ratio", Unit: "ratio", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "runahead.vr.host_ratio", Unit: "ratio", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "runahead.dvr.host_ratio", Unit: "ratio", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "prefetch.imp.host_ratio", Unit: "ratio", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "prefetch.oracle.host_ratio", Unit: "ratio", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "runahead.pre.allocs_per_inst", Unit: "count", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "runahead.vr.allocs_per_inst", Unit: "count", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "runahead.dvr.allocs_per_inst", Unit: "count", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "prefetch.imp.allocs_per_inst", Unit: "count", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "prefetch.oracle.allocs_per_inst", Unit: "count", Better: "lower", Moves: "sim_mips matrix-exact"},
	{Name: "runahead.dvr.useful_ratio", Unit: "ratio", Better: "higher", Moves: "none (model statistic)"},
	{Name: "prefetch.imp.useful_ratio", Unit: "ratio", Better: "higher", Moves: "none (model statistic)"},

	{Name: "sampling.plan_s", Unit: "s", Better: "lower", Moves: "wall_s matrix-sampled"},
	{Name: "sampling.replay_s", Unit: "s", Better: "lower", Moves: "wall_s matrix-sampled"},
	{Name: "sampling.timed_frac", Unit: "ratio", Better: "lower", Moves: "sampled_err_pct, wall_s matrix-sampled"},
	{Name: "sampling.phases", Unit: "count", Better: "lower", Moves: "sampled_err_pct matrix-sampled"},

	{Name: "experiments.matrix_par_eff", Unit: "ratio", Better: "higher", Moves: "wall_s matrix-exact"},

	{Name: "paper.dvr_hmean_speedup", Unit: "ratio", Better: "higher", Moves: "paper_err_pct matrix-exact"},
	{Name: "paper.vr_hmean_speedup", Unit: "ratio", Better: "higher", Moves: "paper_err_pct matrix-exact"},
	{Name: "paper_err_pct", Unit: "%", Better: "lower", Moves: "fidelity to the paper, matrix-exact"},
	{Name: "sampled_err_pct", Unit: "%", Better: "lower", Moves: "fidelity of the projection, matrix-sampled"},

	{Name: "checkpoint.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "sim_mips, op_p50_ms fleet-cold"},
	{Name: "checkpoint.save_ms", Unit: "ms", Better: "lower", Moves: "sim_mips, op_p50_ms fleet-cold"},
	{Name: "checkpoint.bytes", Unit: "count", Better: "lower", Moves: "sim_mips, op_p50_ms fleet-cold"},
	{Name: "checkpoint.writes", Unit: "count", Better: "lower", Moves: "sim_mips, op_p50_ms fleet-cold"},
	{Name: "trace.interval_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "sim_mips fleet-cold"},

	{Name: "service.cachekey_us", Unit: "us", Better: "lower", Moves: "ops_per_s, op_p50_ms serve-warm"},
	{Name: "service.hit_self_us", Unit: "us", Better: "lower", Moves: "ops_per_s, op_p50_ms serve-warm"},
	{Name: "api.encode_batch78_us", Unit: "us", Better: "lower", Moves: "wall_s serve-warm"},
	{Name: "api.decode_batch78_us", Unit: "us", Better: "lower", Moves: "wall_s serve-warm"},
	{Name: "service.queue_wait_p50_ms", Unit: "ms", Better: "lower", Moves: "sim_mips, op_p95_ms fleet-cold"},
	{Name: "service.sim_busy_frac", Unit: "ratio", Better: "higher", Moves: "sim_mips fleet-cold"},
	{Name: "service.cold_overhead_ratio", Unit: "ratio", Better: "lower", Moves: "sim_mips, op_p95_ms fleet-cold"},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "none (1 on serve-warm, 0 on fleet-cold)"},

	{Name: "frontend.accept_p50_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms fleet-cold"},
	{Name: "frontend.dispatch_p50_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms fleet-cold"},
	{Name: "ledger.append_us", Unit: "us", Better: "lower", Moves: "op_p50_ms fleet-cold"},
	{Name: "ledger.appends", Unit: "count", Better: "lower", Moves: "op_p50_ms fleet-cold"},

	{Name: "obs.span_ns", Unit: "ns", Better: "lower", Moves: "op_p50_ms fleet-cold"},
	{Name: "obs.spans_per_op", Unit: "count", Better: "lower", Moves: "op_p50_ms fleet-cold"},
	{Name: "obs.dropped", Unit: "count", Better: "lower", Moves: "none (trace completeness)"},
	{Name: "obs.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "op_p50_ms fleet-cold"},

	{Name: "cluster.prefer_ns", Unit: "ns", Better: "lower", Moves: "op_p50_ms fleet-cold"},
	{Name: "cluster.owner_skew", Unit: "ratio", Better: "lower", Moves: "op_p95_ms fleet-cold"},

	{Name: "stream.publish_ns", Unit: "ns", Better: "lower", Moves: "op_p50_ms fleet-cold"},
	{Name: "stream.events_per_op", Unit: "count", Better: "lower", Moves: "op_p50_ms fleet-cold"},
	{Name: "stream.dropped", Unit: "count", Better: "lower", Moves: "none (stream completeness)"},

	{Name: "client.healthz_us", Unit: "us", Better: "lower", Moves: "op_p50_ms serve-warm (HTTP floor)"},
	{Name: "client.retries", Unit: "count", Better: "lower", Moves: "op_p95_ms serve-warm, fleet-cold"},

	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "none (memory used, all)"},
	{Name: "process.gc_cpu_frac", Unit: "ratio", Better: "lower", Moves: "sim_mips matrix-*; ops_per_s serve-warm"},
	{Name: "process.allocs_per_op", Unit: "count", Better: "lower", Moves: "ops_per_s serve-warm"},

	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "none (cost of observing)"},
	{Name: "bench.latency_xcheck_pct", Unit: "%", Better: "lower", Moves: "none (client vs server clock)"},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

package service

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dvr/internal/service/api"
)

// Prometheus text exposition, hand-rolled (the repo takes no dependencies):
// GET /metrics with "Accept: text/plain" renders the same snapshot the JSON
// body carries, as gauges and counters, plus the latency histograms
// (request duration, queue wait, dispatch attempts) that only exist in
// this format. Under "Accept: application/openmetrics-text" bucket lines
// additionally carry trace-id exemplars — the OpenMetrics "# {...}"
// syntax would break classic text-format parsers, so it is opt-in by
// content negotiation.

// latencyBounds are the histogram bucket upper bounds in seconds. They
// span network-fast cache hits (~ms) through full simulations (~minutes).
var latencyBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// histogram is a fixed-bucket duration histogram safe for concurrent
// observation. Buckets are non-cumulative atomics; the cumulative form
// Prometheus wants is computed at exposition time, so observe() on the
// hot request path is one atomic add (plus one for the sum). When a
// traced observation lands (observeTraced with a non-empty trace id) the
// bucket's exemplar is replaced under a mutex — that path only runs with
// tracing enabled, so the disabled hot path stays lock-free.
type histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; the last bucket is +Inf
	sumUS  atomic.Uint64   // total observed microseconds

	exMu sync.Mutex
	ex   []exemplar // len(bounds)+1, allocated on first traced observation
}

// exemplar is the most recent traced observation of one bucket: the
// trace id to pivot from a latency outlier into its distributed trace.
type exemplar struct {
	traceID string
	val     float64 // observed value, seconds
	tsUS    int64   // observation wall-clock, µs since epoch
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// observeTraced records one duration, capturing it as the bucket's
// exemplar when the observation belongs to a trace.
func (h *histogram) observeTraced(d time.Duration, traceID string) {
	if d < 0 {
		d = 0
	}
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumUS.Add(uint64(d.Microseconds()))
	if traceID == "" {
		return
	}
	h.exMu.Lock()
	if h.ex == nil {
		h.ex = make([]exemplar, len(h.bounds)+1)
	}
	h.ex[i] = exemplar{traceID: traceID, val: s, tsUS: time.Now().UnixMicro()}
	h.exMu.Unlock()
}

// write renders the histogram in Prometheus text format under name.
func (h *histogram) write(w io.Writer, name string, om bool) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	h.writeSeries(w, name, "", om)
}

// writeSeries renders the bucket/sum/count series without the TYPE
// header (so labeled variants of one family share a single header).
// labels, when non-empty, is spliced into every series ("outcome=\"ok\"");
// om additionally appends OpenMetrics trace-id exemplars to buckets that
// have one.
func (h *histogram) writeSeries(w io.Writer, name, labels string, om bool) {
	var exs []exemplar
	if om {
		h.exMu.Lock()
		if h.ex != nil {
			exs = append([]exemplar(nil), h.ex...)
		}
		h.exMu.Unlock()
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	exTail := func(i int) string {
		if i >= len(exs) || exs[i].traceID == "" {
			return ""
		}
		return fmt.Sprintf(" # {trace_id=%q} %s %s", exs[i].traceID,
			promFloat(exs[i].val), promFloat(float64(exs[i].tsUS)/1e6))
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d%s\n", name, labels, sep, promFloat(b), cum, exTail(i))
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d%s\n", name, labels, sep, cum, exTail(len(h.bounds)))
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, promFloat(float64(h.sumUS.Load())/1e6))
		fmt.Fprintf(w, "%s_count %d\n", name, cum)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, promFloat(float64(h.sumUS.Load())/1e6))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, cum)
	}
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// dispatchOutcomes are the label values of dvrd_dispatch_attempt_seconds,
// in exposition order: how one frontend→worker dispatch attempt resolved.
var dispatchOutcomes = []string{"ok", "failover", "hedge-win", "hedge-lose", "breaker-open"}

// writePrometheus renders one metrics snapshot as Prometheus text. The
// scalar series mirror the JSON api.Metrics fields one-for-one so the two
// formats never disagree about what the server is doing. om appends
// OpenMetrics trace-id exemplars to histogram buckets.
func writePrometheus(w io.Writer, m api.Metrics, reqHist, queueHist *histogram, om bool) {
	gauge := func(name string, v float64) {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(v))
	}
	counter := func(name string, v uint64) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
	}
	gauge("dvrd_uptime_seconds", m.UptimeSeconds)
	gauge("dvrd_workers", float64(m.Workers))
	gauge("dvrd_busy_workers", float64(m.BusyWorkers))
	gauge("dvrd_queue_depth", float64(m.QueueDepth))
	gauge("dvrd_cache_entries", float64(m.CacheEntries))
	counter("dvrd_cache_hits_total", m.CacheHits)
	counter("dvrd_cache_misses_total", m.CacheMisses)
	gauge("dvrd_cache_hit_rate", m.CacheHitRate)
	counter("dvrd_sims_completed_total", m.SimsCompleted)
	counter("dvrd_single_flight_shared_total", m.SingleFlightShared)
	counter("dvrd_single_flight_retries_total", m.SingleFlightRetries)
	gauge("dvrd_jobs_active", float64(m.JobsActive))
	gauge("dvrd_jobs_done", float64(m.JobsDone))
	counter("dvrd_panics_recovered_total", m.PanicsRecovered)
	counter("dvrd_shed_total", m.ShedTotal)
	gauge("dvrd_admission_limit", m.AdmissionLimit)
	gauge("dvrd_admission_inflight", float64(m.AdmissionInflight))
	counter("dvrd_admission_rejected_total", m.AdmissionRejected)
	counter("dvrd_deadline_rejected_total", m.DeadlineRejected)
	counter("dvrd_spill_quarantined_total", m.SpillQuarantined)
	counter("dvrd_checkpoints_written_total", m.CheckpointsWritten)
	counter("dvrd_checkpoints_resumed_total", m.CheckpointsResumed)
	counter("dvrd_checkpoint_write_errors_total", m.CheckpointWriteErrors)
	counter("dvrd_checkpoints_quarantined_total", m.CheckpointsQuarantined)
	counter("dvrd_watchdog_trips_total", m.WatchdogTrips)
	counter("dvrd_sim_instructions_total", m.SimInstructions)
	gauge("dvrd_sim_mips", m.SimMIPS)
	counter("dvrd_requests_total", m.RequestsTotal)
	gauge("dvrd_traces_stored", float64(m.TracesStored))
	gauge("dvrd_obs_spans", float64(m.ObsSpans))
	counter("dvrd_obs_spans_dropped_total", m.ObsSpansDropped)
	gauge("dvrd_stream_sessions_active", float64(m.StreamSessionsActive))
	counter("dvrd_stream_sessions_opened_total", m.StreamSessionsOpened)
	counter("dvrd_stream_sessions_expired_total", m.StreamSessionsExpired)
	counter("dvrd_stream_events_published_total", m.StreamEventsPublished)
	counter("dvrd_stream_events_dropped_total", m.StreamEventsDropped)
	// Per-session accounting: one labeled series per attached subscriber,
	// so a dashboard can name the exact consumer that is falling behind.
	if len(m.StreamSessions) > 0 {
		fmt.Fprint(w, "# TYPE dvrd_stream_session_dropped gauge\n")
		for _, ss := range m.StreamSessions {
			fmt.Fprintf(w, "dvrd_stream_session_dropped{session=%q,job=%q} %d\n", ss.ID, ss.JobID, ss.Dropped)
		}
		fmt.Fprint(w, "# TYPE dvrd_stream_session_delivered gauge\n")
		for _, ss := range m.StreamSessions {
			fmt.Fprintf(w, "dvrd_stream_session_delivered{session=%q,job=%q} %d\n", ss.ID, ss.JobID, ss.Delivered)
		}
	}
	reqHist.write(w, "dvrd_request_duration_seconds", om)
	queueHist.write(w, "dvrd_queue_wait_seconds", om)
}

// writeClusterPrometheus renders a frontend's metrics snapshot as
// Prometheus text: fleet-wide routing counters, replica-state gauges, and
// one labeled health series per replica so a dashboard can name the exact
// worker that is failing probes. dispatch is the per-outcome
// dvrd_dispatch_attempt_seconds family (nil-safe); om appends
// OpenMetrics trace-id exemplars to histogram buckets.
func writeClusterPrometheus(w io.Writer, m api.ClusterMetrics, reqHist *histogram, dispatch map[string]*histogram, om bool) {
	gauge := func(name string, v float64) {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(v))
	}
	counter := func(name string, v uint64) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
	}
	gauge("dvrd_uptime_seconds", m.UptimeSeconds)
	counter("dvrd_requests_total", m.RequestsTotal)
	fmt.Fprint(w, "# TYPE dvrd_cluster_replicas gauge\n")
	fmt.Fprintf(w, "dvrd_cluster_replicas{state=\"up\"} %d\n", m.ReplicasUp)
	fmt.Fprintf(w, "dvrd_cluster_replicas{state=\"draining\"} %d\n", m.ReplicasDraining)
	fmt.Fprintf(w, "dvrd_cluster_replicas{state=\"dead\"} %d\n", m.ReplicasDead)
	counter("dvrd_cluster_routed_total", m.RoutedTotal)
	counter("dvrd_cluster_failovers_total", m.Failovers)
	counter("dvrd_cluster_failover_exhausted_total", m.FailoverExhausted)
	counter("dvrd_cluster_probes_total", m.ProbesTotal)
	counter("dvrd_cluster_probe_failures_total", m.ProbeFailures)
	gauge("dvrd_jobs_active", float64(m.JobsActive))
	gauge("dvrd_jobs_done", float64(m.JobsDone))
	counter("dvrd_ledger_records_total", m.LedgerRecords)
	counter("dvrd_ledger_append_errors_total", m.LedgerAppendErrors)
	counter("dvrd_ledger_quarantined_total", m.LedgerQuarantined)
	counter("dvrd_ledger_torn_repaired_total", m.LedgerTornRepaired)
	counter("dvrd_ledger_jobs_recovered_total", m.LedgerJobsRecovered)
	counter("dvrd_idempotent_hits_total", m.IdempotentHits)
	counter("dvrd_hedges_launched_total", m.HedgesLaunched)
	counter("dvrd_hedges_won_total", m.HedgesWon)
	counter("dvrd_breaker_trips_total", m.BreakerTrips)
	gauge("dvrd_breakers_open", float64(m.BreakersOpen))
	counter("dvrd_deadline_rejected_total", m.DeadlineRejected)
	gauge("dvrd_obs_spans", float64(m.ObsSpans))
	counter("dvrd_obs_spans_dropped_total", m.ObsSpansDropped)
	if len(m.Replicas) > 0 {
		fmt.Fprint(w, "# TYPE dvrd_cluster_replica_up gauge\n")
		for _, r := range m.Replicas {
			up := 0
			if r.State == "up" {
				up = 1
			}
			fmt.Fprintf(w, "dvrd_cluster_replica_up{replica=%q,state=%q} %d\n", r.Name, r.State, up)
		}
		fmt.Fprint(w, "# TYPE dvrd_cluster_replica_probes gauge\n")
		for _, r := range m.Replicas {
			fmt.Fprintf(w, "dvrd_cluster_replica_probes{replica=%q} %d\n", r.Name, r.ProbesTotal)
		}
		fmt.Fprint(w, "# TYPE dvrd_cluster_replica_probe_failures gauge\n")
		for _, r := range m.Replicas {
			fmt.Fprintf(w, "dvrd_cluster_replica_probe_failures{replica=%q} %d\n", r.Name, r.ProbeFailures)
		}
	}
	reqHist.write(w, "dvrd_request_duration_seconds", om)
	if len(dispatch) > 0 {
		fmt.Fprint(w, "# TYPE dvrd_dispatch_attempt_seconds histogram\n")
		for _, outcome := range dispatchOutcomes {
			if h := dispatch[outcome]; h != nil {
				h.writeSeries(w, "dvrd_dispatch_attempt_seconds", fmt.Sprintf("outcome=%q", outcome), om)
			}
		}
	}
}

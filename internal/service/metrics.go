package service

import (
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dvr/internal/service/api"
)

// GET /metrics serves a role's snapshot as JSON or, when the client asks
// for text, as Prometheus text exposition (hand-rolled: the repo takes no
// dependencies). The snapshot type declares every series once: each number
// in it is the series dvrd_<JSON key>, a counter with a _total suffix when
// the field is a uint64 and a gauge otherwise, unless promNames renames
// it. The text is written from the same snapshot value as the JSON body,
// so the two formats cannot disagree. A role's exposition adds the
// families read from a snapshot list (one labeled sample per stream
// session or replica) and the latency histograms (request duration, queue
// wait, dispatch attempts), which exist only as text. Under "Accept:
// application/openmetrics-text" histogram buckets also carry trace-id
// exemplars; the OpenMetrics "# {...}" syntax would break classic
// text-format parsers, so it is opt-in.

// promNames are the snapshot numbers whose series name is not derived from
// their JSON key: the frontend's routing counters, and its replica counts,
// which are one family labeled by state. A name carries its labels; the
// samples of one family are adjacent fields and share its TYPE line.
var promNames = map[string]string{
	"replicas_up":        `dvrd_cluster_replicas{state="up"}`,
	"replicas_draining":  `dvrd_cluster_replicas{state="draining"}`,
	"replicas_dead":      `dvrd_cluster_replicas{state="dead"}`,
	"routed_total":       "dvrd_cluster_routed_total",
	"failovers":          "dvrd_cluster_failovers_total",
	"failover_exhausted": "dvrd_cluster_failover_exhausted_total",
	"probes_total":       "dvrd_cluster_probes_total",
	"probe_failures":     "dvrd_cluster_probe_failures_total",
}

// listFamily is a gauge family with one labeled sample per element of a
// list in the snapshot; each emits them in list order.
type listFamily struct {
	name string
	each func(snap any, emit func(labels string, v uint64))
}

// hist is one histogram; its name carries its labels when its family has
// several.
type hist struct {
	name string
	h    *histogram
}

// exposition is what a role writes as text after its snapshot's numbers:
// its list families, then its histograms.
type exposition struct {
	lists []listFamily
	hists []hist
}

// workerExposition adds one sample per attached stream subscriber, so a
// dashboard can name the exact consumer that is falling behind.
var workerExposition = exposition{lists: []listFamily{
	{"dvrd_stream_session_dropped", func(snap any, emit func(string, uint64)) {
		for _, ss := range snap.(api.Metrics).StreamSessions {
			emit(fmt.Sprintf("session=%q,job=%q", ss.ID, ss.JobID), ss.Dropped)
		}
	}},
	{"dvrd_stream_session_delivered", func(snap any, emit func(string, uint64)) {
		for _, ss := range snap.(api.Metrics).StreamSessions {
			emit(fmt.Sprintf("session=%q,job=%q", ss.ID, ss.JobID), ss.Delivered)
		}
	}},
}}

// frontendExposition adds one health sample per replica, so a dashboard
// can name the exact worker that is failing probes.
var frontendExposition = exposition{lists: []listFamily{
	{"dvrd_cluster_replica_up", func(snap any, emit func(string, uint64)) {
		for _, r := range snap.(api.ClusterMetrics).Replicas {
			var up uint64
			if r.State == "up" {
				up = 1
			}
			emit(fmt.Sprintf("replica=%q,state=%q", r.Name, r.State), up)
		}
	}},
	{"dvrd_cluster_replica_probes", func(snap any, emit func(string, uint64)) {
		for _, r := range snap.(api.ClusterMetrics).Replicas {
			emit(fmt.Sprintf("replica=%q", r.Name), r.ProbesTotal)
		}
	}},
	{"dvrd_cluster_replica_probe_failures", func(snap any, emit func(string, uint64)) {
		for _, r := range snap.(api.ClusterMetrics).Replicas {
			emit(fmt.Sprintf("replica=%q", r.Name), r.ProbeFailures)
		}
	}},
}}

// dispatchOutcomes are the label values of dvrd_dispatch_attempt_seconds,
// in exposition order: how one frontend→worker dispatch attempt resolved.
var dispatchOutcomes = []string{"ok", "failover", "hedge-win", "hedge-lose"}

// write renders snap, a role's snapshot struct, as Prometheus text; om
// appends OpenMetrics trace-id exemplars to histogram buckets.
func (e exposition) write(w io.Writer, snap any, om bool) {
	family := ""
	typeLine := func(name, typ string) {
		if f, _, _ := strings.Cut(name, "{"); f != family {
			fmt.Fprintf(w, "# TYPE %s %s\n", f, typ)
			family = f
		}
	}
	v := reflect.ValueOf(snap)
	for i := 0; i < v.NumField(); i++ {
		typ, val := "gauge", ""
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			typ, val = "counter", strconv.FormatUint(f.Uint(), 10)
		case reflect.Int:
			val = promFloat(float64(f.Int()))
		case reflect.Float64:
			val = promFloat(f.Float())
		default:
			continue // not a number: the role, or a list
		}
		key, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		name, ok := promNames[key]
		if !ok {
			name = "dvrd_" + key
			if typ == "counter" && !strings.HasSuffix(name, "_total") {
				name += "_total"
			}
		}
		typeLine(name, typ)
		fmt.Fprintf(w, "%s %s\n", name, val)
	}
	for _, l := range e.lists {
		l.each(snap, func(labels string, v uint64) {
			typeLine(l.name, "gauge")
			fmt.Fprintf(w, "%s{%s} %d\n", l.name, labels, v)
		})
	}
	for _, h := range e.hists {
		typeLine(h.name, "histogram")
		name, labels, _ := strings.Cut(h.name, "{")
		h.h.writeSeries(w, name, strings.TrimSuffix(labels, "}"), om)
	}
}

// wantsPrometheus decides the /metrics representation: Prometheus text
// only when the client explicitly asks for text (a scraper's
// "Accept: text/plain"); everything else — no header, */*, JSON — gets
// the JSON snapshot, which existing tooling parses.
func wantsPrometheus(accept string) bool {
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "application/openmetrics-text")
}

// wantsExemplars gates the OpenMetrics-only exemplar syntax: classic
// text-format parsers reject the trailing "# {...}" clause, so exemplars
// only render when the scraper negotiates openmetrics explicitly.
func wantsExemplars(accept string) bool {
	return strings.Contains(accept, "application/openmetrics-text")
}

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

// writeSeries renders the bucket/sum/count series of the family name,
// without its TYPE line. labels, when non-empty, is spliced into every
// series ("outcome=\"ok\""); om additionally appends OpenMetrics trace-id
// exemplars to buckets that have one.
func (h *histogram) writeSeries(w io.Writer, name, labels string, om bool) {
	var exs []exemplar
	if om {
		h.exMu.Lock()
		if h.ex != nil {
			exs = append([]exemplar(nil), h.ex...)
		}
		h.exMu.Unlock()
	}
	sel, sep := "", "" // labels as the _sum/_count selector, and before le
	if labels != "" {
		sel, sep = "{"+labels+"}", ","
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
	fmt.Fprintf(w, "%s_sum%s %s\n", name, sel, promFloat(float64(h.sumUS.Load())/1e6))
	fmt.Fprintf(w, "%s_count%s %d\n", name, sel, cum)
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

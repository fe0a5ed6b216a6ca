package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"text/tabwriter"
	"time"
)

const schemaVersion = 1

// sizes fixes how much work each workload does. The full sizes keep one
// untraced run (three set-ups, the timed phase, verification) near 25 s on
// two cores; -smoke shrinks everything so `go test` can drive all four
// workloads, fleet included, in seconds.
type sizes struct {
	graphScale int // Kronecker scale of the GAP input (2^scale vertices)
	roiExact   uint64
	roiSampled uint64
	roiServe   uint64
	roiFleet   uint64 // plus a per-op offset so no cell is ever cached
	setupReps  int    // set-ups per run; setup_s is their median
	minReps    int    // matrices timed at least
	maxReps    int    // 0 = until -seconds is spent
	maxReqs    int    // serve-warm phase A requests; 0 = until time is spent
	maxBatches int    // serve-warm phase B batches; 0 = until time is spent
	maxJobs    int    // fleet-cold jobs; 0 = until time is spent
	probeInsts uint64 // instructions recorded per kernel for layer probes
}

var (
	fullSizes = sizes{
		graphScale: 13, roiExact: 200_000, roiSampled: 2_000_000, roiServe: 60_000, roiFleet: 100_000,
		setupReps: 3, minReps: 3, probeInsts: 100_000,
	}
	smokeSizes = sizes{
		graphScale: 11, roiExact: 20_000, roiSampled: 20_000, roiServe: 20_000, roiFleet: 20_000,
		setupReps: 1, minReps: 1, maxReps: 1, maxReqs: 40, maxBatches: 4, maxJobs: 4, probeInsts: 10_000,
	}
)

// metricVal is one reported metric with its unit and sample count.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// resultDoc is the self-describing document one workload run writes to
// out/result-<workload>[-trace].json.
type resultDoc struct {
	SchemaVersion int                  `json:"schema_version"`
	Workload      string               `json:"workload"`
	Seed          uint64               `json:"seed"`
	Seconds       int                  `json:"seconds"`
	Trace         bool                 `json:"trace"`
	Smoke         bool                 `json:"smoke"`
	Host          hostInfo             `json:"host"`
	Correct       bool                 `json:"correct"`
	Attempted     int                  `json:"attempted"`
	Failed        int                  `json:"failed"`
	Failures      []string             `json:"failures,omitempty"`
	EndToEnd      map[string]metricVal `json:"end_to_end"`
	PerLayer      map[string]metricVal `json:"per_layer,omitempty"`
	Notes         []string             `json:"notes,omitempty"`
	Spans         []spanTotals         `json:"spans,omitempty"`
	ElapsedS      float64              `json:"elapsed_s"`
}

// driverLine is the last line of standard output of a single-workload run.
type driverLine struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]driverMetricVal `json:"metrics"`
}

type driverMetricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine selects what the contract asks for: every end-to-end metric
// of an untraced run, every per-layer metric of a traced one (0 where the
// workload does not exercise the layer).
func (d *resultDoc) driverLine() driverLine {
	defs, vals := endToEnd, d.EndToEnd
	if d.Trace {
		defs, vals = perLayer, d.PerLayer
	}
	out := driverLine{Correct: d.Correct, Attempted: d.Attempted, Failed: d.Failed,
		Metrics: make(map[string]driverMetricVal, len(defs))}
	for _, def := range defs {
		out.Metrics[def.Name] = driverMetricVal{Value: vals[def.Name].Value, Unit: def.Unit}
	}
	return out
}

func resultPath(benchDir, workload string, traced bool) string {
	name := "result-" + workload
	if traced {
		name += "-trace"
	}
	return filepath.Join(benchDir, "out", name+".json")
}

// run is the state of one workload run.
type run struct {
	o        options
	sz       sizes
	benchDir string
	outDir   string
	tmpDir   string
	spans    *spanLog // nil when untraced
	procs    *procSet
	hc       *http.Client

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	notes     []string
	e2e       map[string]metricVal
	layer     map[string]metricVal
}

// setE2E and setLayer record a metric; the name must be declared in
// metrics.go (an undeclared name is a bug in the harness, not in the run).
func (r *run) setE2E(name string, v float64, n int)   { r.set(endToEnd, r.e2e, name, v, n) }
func (r *run) setLayer(name string, v float64, n int) { r.set(perLayer, r.layer, name, v, n) }

func (r *run) set(defs []metricDef, into map[string]metricVal, name string, v float64, n int) {
	def, ok := findMetric(defs, name)
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	r.mu.Lock()
	into[name] = metricVal{Value: v, Unit: def.Unit, N: n}
	r.mu.Unlock()
}

// setOpLatency records the two op-latency metrics, noting when the sample
// count supports no p95.
func (r *run) setOpLatency(lat latencySummary) {
	r.setE2E("op_p50_ms", lat.P50, lat.N)
	r.setE2E("op_p95_ms", lat.Tail, lat.N)
	if lat.TailPct < 95 {
		r.notef("op_p95_ms is the p%g: %d samples support no higher percentile", lat.TailPct, lat.N)
	}
}

// attempt counts n operations attempted.
func (r *run) attempt(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// failf counts one failed operation (failed, refused, or failing
// verification) and keeps the first few reasons for the report.
func (r *run) failf(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *run) notef(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// tracing reports whether this is the traced run.
func (r *run) tracing() bool { return r.o.trace == 1 }

// clients is the closed-loop client count: one per CPU.
func (r *run) clients() int { return runtime.NumCPU() }

// runWorkload runs one workload in this process and writes its document.
// Every process and directory it creates is gone when it returns.
func runWorkload(ctx context.Context, benchDir string, o options) (*resultDoc, error) {
	var fn func(*run, context.Context) error
	switch o.workload {
	case wlMatrixExact:
		fn = (*run).matrixExact
	case wlMatrixSampled:
		fn = (*run).matrixSampled
	case wlServeWarm:
		fn = (*run).serveWarm
	case wlFleetCold:
		fn = (*run).fleetCold
	default:
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	started := time.Now()
	r := &run{
		o: o, sz: fullSizes, benchDir: benchDir,
		outDir: filepath.Join(benchDir, "out"),
		e2e:    make(map[string]metricVal),
		layer:  make(map[string]metricVal),
	}
	if o.smoke {
		r.sz = smokeSizes
	}
	if r.tracing() {
		r.spans = newSpanLog()
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return nil, err
	}
	// Temp state lives under out/ so a run reads and writes only inside its
	// checkout.
	tmp, err := os.MkdirTemp(r.outDir, "tmp-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	r.tmpDir = tmp
	r.procs = &procSet{logDir: tmp}
	r.hc = newHTTPClient()
	defer func() {
		r.procs.stopAll()
		r.hc.CloseIdleConnections()
		_ = os.RemoveAll(tmp) // best effort: the directory is ours and ignored by git
	}()
	if o.workload == wlServeWarm || o.workload == wlFleetCold {
		// Built before any clock starts.
		bin, err := buildDvrd(ctx, benchDir, r.outDir)
		if err != nil {
			return nil, err
		}
		r.procs.bin = bin
	}

	if err := fn(r, ctx); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}

	doc := &resultDoc{
		SchemaVersion: schemaVersion, Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
		Trace: r.tracing(), Smoke: o.smoke, Host: hostFingerprint(benchDir),
		Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		EndToEnd: r.e2e, PerLayer: r.layer, Notes: r.notes,
	}
	doc.Correct = r.failed == 0 && r.attempted > 0
	for _, def := range endToEnd {
		if _, ok := r.e2e[def.Name]; !ok && !r.tracing() {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", o.workload, def.Name)
		}
	}
	if r.spans != nil {
		path := filepath.Join(r.outDir, "trace-"+o.workload+".json")
		if doc.Spans, err = r.spans.write(path, o.workload, o.seed); err != nil {
			return nil, err
		}
	}
	doc.ElapsedS = time.Since(started).Seconds()
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(resultPath(benchDir, o.workload, r.tracing()), append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return doc, nil
}

// newHTTPClient returns a client whose idle pool holds one keep-alive
// connection per closed-loop client and then some, so no request pays a
// dial after its client's first.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     time.Minute,
	}}
}

// buildDvrd compiles cmd/dvrd into out/bin. The go command's own cache
// makes this a staleness check after the first build.
func buildDvrd(ctx context.Context, benchDir, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "dvrd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "dvr/cmd/dvrd")
	cmd.Dir = benchDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build dvr/cmd/dvrd: %v\n%s", err, out)
	}
	return bin, nil
}

// selfPeakRSSMB is this process's resident-set high-water mark.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// fmtValue prints exact counts in full and measurements to six digits.
func fmtValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// printHuman renders the document as the table a person reads.
func printHuman(w io.Writer, d *resultDoc) {
	mode := "untraced"
	if d.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %d s  %s  (%s, GOMAXPROCS %d, %s)\n",
		d.Workload, d.Seed, d.Seconds, mode, d.Host.GoVersion, d.Host.GOMAXPROCS, d.Host.CPUModel)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tn\tbound / moves")
	for _, def := range endToEnd {
		if v, ok := d.EndToEnd[def.Name]; ok {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s is better, bound %.2f\n", def.Name, fmtValue(v.Value), v.Unit, v.N, def.Better, def.Bound)
		}
	}
	ops := d.Attempted
	if ops < 1 {
		ops = 1
	}
	fmt.Fprintf(tw, "fail_ratio\t%.6g\tratio\t%d\t%d failed of %d attempted\n",
		float64(d.Failed)/float64(ops), d.Attempted, d.Failed, d.Attempted)
	if d.Trace {
		for _, def := range perLayer {
			if v, ok := d.PerLayer[def.Name]; ok {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t-> %s\n", def.Name, fmtValue(v.Value), v.Unit, v.N, def.Moves)
			}
		}
	}
	tw.Flush()
	if len(d.Spans) > 0 {
		tw = tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "span\tcount\ttotal ms\tself ms")
		for _, s := range d.Spans {
			fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
		}
		tw.Flush()
	}
	for _, n := range d.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, f := range d.Failures {
		fmt.Fprintln(w, "FAIL:", f)
	}
	fmt.Fprintf(w, "correct=%v  elapsed %.1f s\n", d.Correct, d.ElapsedS)
}

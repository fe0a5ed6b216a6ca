package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dvr/internal/service/api"
	"dvr/internal/workloads"
)

func getWithAccept(t *testing.T, url, accept string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	return resp, sb.String()
}

// TestMetricsContentNegotiation: JSON stays the default representation
// (existing tooling pipes /metrics through a JSON parser); Prometheus
// text exposition is opt-in via Accept, and carries the two latency
// histograms that have no JSON form.
func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Drive one request through the pool so the histograms are non-empty.
	resp, body := postJSON(t, ts.URL+"/v1/sim", api.SimRequest{Workload: loopRef(2_000), Technique: "ooo"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sim: %s: %s", resp.Status, body)
	}

	resp, text := getWithAccept(t, ts.URL+"/metrics", "")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("default /metrics Content-Type = %q, want JSON", ct)
	}
	var m api.Metrics
	if err := json.Unmarshal([]byte(text), &m); err != nil {
		t.Fatalf("default /metrics is not JSON: %v", err)
	}
	if m.RequestsTotal == 0 {
		t.Error("requests_total is zero after a served request")
	}

	resp, text = getWithAccept(t, ts.URL+"/metrics", "text/plain")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Prometheus /metrics Content-Type = %q, want text/plain", ct)
	}
	for _, want := range []string{
		"# TYPE dvrd_request_duration_seconds histogram",
		"dvrd_request_duration_seconds_bucket{le=\"+Inf\"}",
		"dvrd_request_duration_seconds_count",
		"# TYPE dvrd_queue_wait_seconds histogram",
		"dvrd_queue_wait_seconds_sum",
		"dvrd_cache_hits_total",
		"dvrd_requests_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}
	if strings.Contains(text, "{") && !strings.Contains(text, "le=") {
		t.Error("unexpected labelled series")
	}
	// The queue-wait histogram must have observed the simulated request.
	if strings.Contains(text, "dvrd_queue_wait_seconds_count 0\n") {
		t.Error("queue-wait histogram empty after a pooled simulation")
	}
}

// TestMetricsUnderConcurrentLoad hammers /metrics (both representations)
// while simulations run; the snapshot must stay internally consistent
// (hits+misses == lookups is the property the mutex-guarded counters
// restore) and nothing may race or panic.
func TestMetricsUnderConcurrentLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				resp, _ := postJSON(t, ts.URL+"/v1/sim",
					api.SimRequest{Workload: loopRef(uint64(1_000 + 100*i)), Technique: "ooo"})
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("sim: %s", resp.Status)
				}
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			accept := ""
			if i%2 == 0 {
				accept = "text/plain"
			}
			for j := 0; j < 20; j++ {
				resp, body := getWithAccept(t, ts.URL+"/metrics", accept)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/metrics: %s", resp.Status)
					return
				}
				if accept == "" {
					var m api.Metrics
					if err := json.Unmarshal([]byte(body), &m); err != nil {
						t.Errorf("bad JSON snapshot: %v", err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestRequestIDs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, _ := getWithAccept(t, ts.URL+"/healthz", "")
		id := resp.Header.Get("X-Request-ID")
		if id == "" {
			t.Fatal("no X-Request-ID header")
		}
		if seen[id] {
			t.Fatalf("duplicate request ID %q", id)
		}
		seen[id] = true
	}
}

// TestRequestLogLine pins the one structured line a request logs: its ten
// attributes and their order, which log pipelines parse positionally.
func TestRequestLogLine(t *testing.T) {
	var buf bytes.Buffer
	srv := New(Config{Common: Common{Logger: slog.New(slog.NewJSONHandler(&buf, nil))}})
	defer shutdown(t, srv)
	if rec := serve(srv.Handler(), http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rec.Code)
	}
	var keys []string
	dec := json.NewDecoder(&buf)
	for depth := 0; ; {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch tok {
		case json.Delim('{'):
			depth++
		case json.Delim('}'):
			depth--
		default:
			if key, ok := tok.(string); ok && depth == 1 {
				keys = append(keys, key)
				if _, err := dec.Token(); err != nil { // the value
					t.Fatal(err)
				}
			}
		}
	}
	want := []string{"time", "level", "msg", "id", "method", "path", "status", "duration_ms",
		"queue_wait_ms", "sim_ms", "encode_ms", "trace_id", "span_id"}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("request line has keys\n%v\nwant\n%v\nline: %s", keys, want, buf.String())
	}
}

// TestDefaultLoggerDisabled: a server or frontend configured without a
// logger must not pay for log lines nobody reads; Enabled is what lets the
// request middleware skip building them.
func TestDefaultLoggerDisabled(t *testing.T) {
	for role, logger := range map[string]*slog.Logger{
		"worker":   Config{}.Common.withDefaults("worker").Logger,
		"frontend": FrontendConfig{}.Common.withDefaults("frontend").Logger,
	} {
		for _, level := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelError} {
			if logger.Enabled(context.Background(), level) {
				t.Errorf("%s: the default logger reports level %v enabled", role, level)
			}
		}
		if logger.With("k", "v").WithGroup("g").Enabled(context.Background(), slog.LevelError) {
			t.Errorf("%s: a logger derived from the default one is enabled", role)
		}
	}
}

// runAsyncBatch posts an async batch and polls the job until done,
// returning the job ID.
func runAsyncBatch(t *testing.T, baseURL string, req api.BatchRequest) string {
	t.Helper()
	req.Async = true
	resp, body := postJSON(t, baseURL+"/v1/batch", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch: %s: %s", resp.Status, body)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, body := getWithAccept(t, fmt.Sprintf("%s/v1/jobs/%s", baseURL, br.JobID), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job poll: %s: %s", resp.Status, body)
		}
		var st api.JobStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == api.JobDone {
			return br.JobID
		}
		if st.State == api.JobError {
			t.Fatalf("job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", br.JobID)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJobTraceEndpoint drives an async batch on a tracing server and
// reads the per-cell interval telemetry back, including for a second
// batch answered entirely from the result cache (the trace store keeps
// the first run's series).
func TestJobTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceIntervalEvery: 2_000})
	req := api.BatchRequest{
		Workloads:  []workloads.Ref{loopRef(6_000)},
		Techniques: []string{"ooo", "dvr"},
	}
	check := func(jobID string, wantCached bool) {
		t.Helper()
		resp, body := getWithAccept(t, fmt.Sprintf("%s/v1/jobs/%s/trace", ts.URL, jobID), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace (cached=%v): %s: %s", wantCached, resp.Status, body)
		}
		var jt api.JobTrace
		if err := json.Unmarshal([]byte(body), &jt); err != nil {
			t.Fatal(err)
		}
		if jt.JobID != jobID || jt.IntervalInsts != 2_000 {
			t.Errorf("job trace header: %+v", jt)
		}
		if len(jt.Cells) != 2 {
			t.Fatalf("got %d trace cells, want 2", len(jt.Cells))
		}
		for _, c := range jt.Cells {
			if c.Missing {
				t.Errorf("cell %s/%s missing its interval series (cached=%v)", c.Bench, c.Technique, wantCached)
				continue
			}
			if len(c.Intervals) == 0 {
				t.Errorf("cell %s/%s has no intervals", c.Bench, c.Technique)
			}
			var insts uint64
			for _, iv := range c.Intervals {
				insts += iv.EndInst - iv.StartInst
			}
			if insts != 6_000 {
				t.Errorf("cell %s/%s: interval insts sum %d, want 6000", c.Bench, c.Technique, insts)
			}
		}
	}
	first := runAsyncBatch(t, ts.URL, req)
	check(first, false)
	// Second identical batch: all cells from the result cache, telemetry
	// still served from the trace store.
	second := runAsyncBatch(t, ts.URL, req)
	check(second, true)

	// Unknown job.
	resp, _ := getWithAccept(t, ts.URL+"/v1/jobs/nope/trace", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace: %s, want 404", resp.Status)
	}
}

// TestJobTraceDisabled: without -trace-interval the endpoint reports the
// feature off rather than returning empty telemetry.
func TestJobTraceDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	jobID := runAsyncBatch(t, ts.URL, api.BatchRequest{
		Workloads:  []workloads.Ref{loopRef(2_000)},
		Techniques: []string{"ooo"},
	})
	resp, body := getWithAccept(t, fmt.Sprintf("%s/v1/jobs/%s/trace", ts.URL, jobID), "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled trace: %s, want 404", resp.Status)
	}
	if !strings.Contains(body, "disabled") {
		t.Errorf("disabled trace body: %s", body)
	}
}

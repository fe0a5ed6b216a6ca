package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dvr/internal/faults"
	"dvr/internal/service/api"
	"dvr/internal/service/client"
	"dvr/internal/stream"
	"dvr/internal/trace"
	"dvr/internal/workloads"
)

// startAsyncBatch posts an async batch and returns its job id.
func startAsyncBatch(t *testing.T, url string, req api.BatchRequest) string {
	t.Helper()
	req.Async = true
	resp, body := postJSON(t, url+"/v1/batch", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch: %s: %s", resp.Status, body)
	}
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.JobID == "" {
		t.Fatal("async batch returned no job id")
	}
	return br.JobID
}

// waitJobDone polls the job until it leaves the running state.
func waitJobDone(t *testing.T, url, id string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, body := getBody(t, url+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job poll: %s: %s", resp.Status, body)
		}
		var st api.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != api.JobRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after 60s", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// collectStream drains a client.Stream to its clean end.
func collectStream(t *testing.T, c *client.Client, jobID string, opts api.StreamOptions) []api.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st := c.Stream(ctx, jobID, opts)
	defer st.Close()
	var out []api.Event
	for {
		ev, err := st.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("stream next: %v (after %d events)", err, len(out))
		}
		out = append(out, ev)
	}
}

// TestStreamMatchesPostHocTrace is the acceptance gate for live
// telemetry: the interval series a subscriber receives over SSE must be
// byte-identical (as JSON) to the series GET /v1/jobs/{id}/trace serves
// after the job finishes — same values, same order, nothing invented or
// dropped by the streaming path.
func TestStreamMatchesPostHocTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceIntervalEvery: 1000})
	c := client.New(ts.URL)
	jobID := startAsyncBatch(t, ts.URL, api.BatchRequest{
		Workloads:  []workloads.Ref{graphRef(8_000)},
		Techniques: []string{"ooo", "dvr"},
	})
	events := collectStream(t, c, jobID, api.StreamOptions{})
	if len(events) == 0 {
		t.Fatal("stream delivered no events")
	}
	// Ids strictly increase; the stream ends with job-done.
	for i := 1; i < len(events); i++ {
		if events[i].ID <= events[i-1].ID {
			t.Fatalf("event ids not increasing: %d after %d", events[i].ID, events[i-1].ID)
		}
	}
	last := events[len(events)-1]
	if last.Kind != api.EventJobDone || last.Error != "" {
		t.Fatalf("stream did not end with a clean job-done: %+v", last)
	}
	// Regroup the streamed intervals per cell, in arrival order.
	streamed := map[int][]trace.Interval{}
	started := map[int]int{}
	for _, ev := range events {
		switch ev.Kind {
		case api.EventCellStarted:
			started[ev.Cell]++
		case api.EventInterval:
			if ev.Interval == nil {
				t.Fatalf("interval event without interval payload: %+v", ev)
			}
			if ev.Replayed {
				t.Fatalf("fresh cell streamed a replayed interval: %+v", ev)
			}
			streamed[ev.Cell] = append(streamed[ev.Cell], *ev.Interval)
		}
	}
	if len(started) != 2 {
		t.Fatalf("saw cell-started for %d cells, want 2", len(started))
	}
	// Post-hoc truth.
	resp, body := getBody(t, ts.URL+"/v1/jobs/"+jobID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %s: %s", resp.Status, body)
	}
	var jt api.JobTrace
	if err := json.Unmarshal(body, &jt); err != nil {
		t.Fatal(err)
	}
	if len(jt.Cells) != 2 {
		t.Fatalf("trace has %d cells, want 2", len(jt.Cells))
	}
	for i, cell := range jt.Cells {
		if cell.Missing || len(cell.Intervals) == 0 {
			t.Fatalf("cell %d has no stored trace", i)
		}
		want, err := json.Marshal(cell.Intervals)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(streamed[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("cell %d: streamed series != stored series\nstreamed: %s\nstored:   %s", i, got, want)
		}
	}
}

// TestStreamBitIdentityUnderSubscribers: eight concurrent SSE
// subscribers watching a job must not change its figures — the batch
// results are byte-identical to the same batch on a fresh, unobserved
// server. This is the PR 5 bit-identity guarantee extended to streaming.
func TestStreamBitIdentityUnderSubscribers(t *testing.T) {
	req := api.BatchRequest{
		Workloads:  []workloads.Ref{graphRef(8_000)},
		Techniques: []string{"ooo", "dvr"},
	}

	// Unobserved baseline on its own server.
	_, tsA := newTestServer(t, Config{TraceIntervalEvery: 1000})
	respA, bodyA := postJSON(t, tsA.URL+"/v1/batch", req)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("baseline batch: %s: %s", respA.Status, bodyA)
	}
	var baseline api.BatchResponse
	if err := json.Unmarshal(bodyA, &baseline); err != nil {
		t.Fatal(err)
	}

	// Same batch, fresh server, eight live subscribers.
	_, tsB := newTestServer(t, Config{TraceIntervalEvery: 1000})
	c := client.New(tsB.URL)
	jobID := startAsyncBatch(t, tsB.URL, req)
	const subs = 8
	var wg sync.WaitGroup
	counts := make([]int, subs)
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			counts[i] = len(collectStream(t, c, jobID, api.StreamOptions{}))
		}(i)
	}
	wg.Wait()
	st := waitJobDone(t, tsB.URL, jobID)
	if st.State != api.JobDone || st.Batch == nil {
		t.Fatalf("observed job did not finish cleanly: %+v", st)
	}
	for i := range st.Batch.Cells {
		want, err := json.Marshal(baseline.Cells[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(st.Batch.Cells[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("cell %d: result drifted under 8 subscribers\ngot:  %s\nwant: %s", i, got, want)
		}
	}
	for i, n := range counts {
		if n == 0 {
			t.Errorf("subscriber %d received no events", i)
		}
	}
}

// TestStalledSubscriberDropsOldestAccounted: a subscriber that never
// polls loses its oldest events (never the job's progress), the loss
// shows up in its per-session drop counter and at /metrics, and the job
// itself is completely unaffected.
func TestStalledSubscriberDropsOldestAccounted(t *testing.T) {
	// The simulation waits for the subscription: a job that finished first
	// would leave nothing to drop.
	subscribed := make(chan struct{})
	release := sync.OnceFunc(func() { close(subscribed) })
	defer release()
	srv, ts := newTestServer(t, Config{TraceIntervalEvery: 500, Common: Common{StreamReplay: 2,
		Faults: &faults.Injector{BeforeSim: func(string) { <-subscribed }}}})
	jobID := startAsyncBatch(t, ts.URL, api.BatchRequest{
		Workloads:  []workloads.Ref{loopRef(20_000)},
		Techniques: []string{"ooo"},
	})
	j, ok := srv.jobs.get(jobID)
	if !ok || j.bc == nil {
		t.Fatalf("job %s has no broadcaster", jobID)
	}
	// Two-event log, never polled: telemetry published past the first two
	// events is evicted before the session reads it, and each is a drop.
	sess := j.bc.Subscribe(stream.SubOptions{})
	defer sess.Close()
	release()

	st := waitJobDone(t, ts.URL, jobID)
	if st.State != api.JobDone {
		t.Fatalf("job failed under a stalled subscriber: %+v", st)
	}
	if sess.Dropped() == 0 {
		t.Fatal("stalled two-slot session recorded no drops")
	}
	m := srv.Metrics()
	if m.StreamEventsDropped == 0 {
		t.Error("metrics show no stream drops")
	}
	if m.StreamSessionsActive == 0 || len(m.StreamSessions) == 0 {
		t.Fatalf("metrics show no active stream sessions: %+v", m)
	}
	found := false
	for _, ss := range m.StreamSessions {
		if ss.JobID == jobID && ss.Dropped == sess.Dropped() {
			found = true
		}
	}
	if !found {
		t.Errorf("per-session drop counter not surfaced: %+v", m.StreamSessions)
	}
	// The same accounting, through the Prometheus exposition.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "dvrd_stream_session_dropped{") {
		t.Error("Prometheus exposition lacks per-session drop series")
	}
	if !strings.Contains(string(text), "dvrd_stream_events_dropped_total") {
		t.Error("Prometheus exposition lacks the drop total")
	}
}

// TestStreamBufferParamIgnored: a subscriber sizes nothing on the server.
// A ?buffer= parameter asking for a billion-event buffer is served like
// any unknown parameter: the stream runs to job-done and the server stays
// up.
func TestStreamBufferParamIgnored(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceIntervalEvery: 1000})
	jobID := startAsyncBatch(t, ts.URL, api.BatchRequest{
		Workloads:  []workloads.Ref{loopRef(10_000)},
		Techniques: []string{"ooo"},
	})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jobID + "/stream?buffer=1000000000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %s", resp.Status)
	}
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for !sawDone && sc.Scan() {
		sawDone = sc.Text() == "event: "+api.EventJobDone
	}
	if !sawDone {
		t.Fatalf("stream ended without a job-done frame (scan error: %v)", sc.Err())
	}
	if hresp, body := getBody(t, ts.URL+"/healthz"); hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the stream: %s: %s", hresp.Status, body)
	}
}

// TestStreamResumeLastEventID exercises the SSE reconnect contract over
// real HTTP: a second GET with Last-Event-ID picks up exactly after the
// cursor, from the replay window.
func TestStreamResumeLastEventID(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceIntervalEvery: 1000})
	jobID := startAsyncBatch(t, ts.URL, api.BatchRequest{
		Workloads:  []workloads.Ref{loopRef(10_000)},
		Techniques: []string{"ooo"},
	})
	waitJobDone(t, ts.URL, jobID)

	ids := sseIDs(t, ts.URL+"/v1/jobs/"+jobID+"/stream", 0)
	if len(ids) < 3 {
		t.Fatalf("too few events to test resume: %v", ids)
	}
	cursor := ids[len(ids)/2]
	resumed := sseIDs(t, ts.URL+"/v1/jobs/"+jobID+"/stream", cursor)
	if len(resumed) == 0 || resumed[0] != cursor+1 {
		t.Fatalf("resume from %d restarted at %v, want %d", cursor, resumed, cursor+1)
	}
	if got, want := len(resumed), len(ids)-len(ids)/2-1; got != want {
		t.Errorf("resume delivered %d events, want %d", got, want)
	}
}

// sseIDs reads one full SSE stream (the job must already be done, so the
// server closes it after the drain) and returns the frame ids, resuming
// after cursor when nonzero.
func sseIDs(t *testing.T, url string, cursor uint64) []uint64 {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cursor > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(cursor, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var ids []uint64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "id: ") {
			id, err := strconv.ParseUint(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q", line)
			}
			ids = append(ids, id)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestStreamHeartbeat: a quiet stream carries comment heartbeats so
// proxies and clients can tell a slow job from a dead connection.
func TestStreamHeartbeat(t *testing.T) {
	_, ts := newTestServer(t, Config{Common: Common{StreamHeartbeat: 20 * time.Millisecond}})
	// A deliberately slow job (huge ROI, no tracing -> no events) with a
	// short timeout so the test server can drain at cleanup.
	jobID := startAsyncBatch(t, ts.URL, api.BatchRequest{
		Workloads:  []workloads.Ref{loopRef(2_000_000_000)},
		Techniques: []string{"ooo"},
		TimeoutMS:  500,
	})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + jobID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sawHB := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), ":") {
			sawHB = true
			break
		}
	}
	if !sawHB {
		t.Fatal("no heartbeat on a quiet stream")
	}
	waitJobDone(t, ts.URL, jobID)
}

// TestJobStatusLiveProgress: JobStatus carries the live interval count
// and subscriber count while the job runs (and after).
func TestJobStatusLiveProgress(t *testing.T) {
	srv, ts := newTestServer(t, Config{TraceIntervalEvery: 500})
	jobID := startAsyncBatch(t, ts.URL, api.BatchRequest{
		Workloads:  []workloads.Ref{loopRef(20_000)},
		Techniques: []string{"ooo"},
	})
	j, _ := srv.jobs.get(jobID)
	sess := j.bc.Subscribe(stream.SubOptions{})
	defer sess.Close()
	st := waitJobDone(t, ts.URL, jobID)
	if st.Intervals == 0 {
		t.Errorf("job status reports no intervals: %+v", st)
	}
	if st.Subscribers != 1 {
		t.Errorf("job status reports %d subscribers, want 1", st.Subscribers)
	}
}

// TestStreamTypedErrors: every non-2xx body either role can produce is a
// typed api.Error — including the mux's own 404/405 pages and the stream
// endpoint's validation failures.
func TestStreamTypedErrors(t *testing.T) {
	_, wts := newTestServer(t, Config{})
	c := newTestCluster(t, 1, Config{}, nil)
	roles := []struct{ name, url string }{{"worker", wts.URL}, {"frontend", c.feTS.URL}}
	cases := []struct {
		name   string
		method string
		path   string
		status int
		code   string
	}{
		{"unknown job stream", http.MethodGet, "/v1/jobs/nope/stream", http.StatusNotFound, api.CodeNotFound},
		{"unknown job status", http.MethodGet, "/v1/jobs/nope", http.StatusNotFound, api.CodeNotFound},
		{"unknown route", http.MethodGet, "/v1/nope", http.StatusNotFound, api.CodeNotFound},
		{"wrong method", http.MethodGet, "/v1/sim", http.StatusMethodNotAllowed, api.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, role := range roles {
				t.Run(role.name, func(t *testing.T) {
					req, err := http.NewRequest(tc.method, role.url+tc.path, nil)
					if err != nil {
						t.Fatal(err)
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != tc.status {
						t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
					}
					if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
						t.Fatalf("content type %q, want JSON (%s)", ct, body)
					}
					var ae api.Error
					if err := json.Unmarshal(body, &ae); err != nil {
						t.Fatalf("body is not a typed error: %v (%s)", err, body)
					}
					if ae.Code != tc.code {
						t.Errorf("code %q, want %q", ae.Code, tc.code)
					}
					if ae.Error == "" {
						t.Error("typed error has no message")
					}
				})
			}
		})
	}
	t.Run("bad stream options", func(t *testing.T) {
		for _, role := range roles {
			t.Run(role.name, func(t *testing.T) {
				jobID := startAsyncBatch(t, role.url, api.BatchRequest{
					Workloads: []workloads.Ref{loopRef(5_000)}, Techniques: []string{"ooo"},
				})
				resp, body := getBody(t, role.url+"/v1/jobs/"+jobID+"/stream?kinds=bogus")
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, body)
				}
				var ae api.Error
				if err := json.Unmarshal(body, &ae); err != nil || ae.Code != api.CodeBadRequest {
					t.Fatalf("bad options not a typed bad_request: %v %s", err, body)
				}
				waitJobDone(t, role.url, jobID)
			})
		}
	})
}

// TestStreamCachedCellReplays: a batch whose cells are already cached
// still streams each cell's stored interval series, marked replayed, so
// a late dashboard sees the same telemetry a live one did.
func TestStreamCachedCellReplays(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceIntervalEvery: 1000})
	c := client.New(ts.URL)
	req := api.BatchRequest{Workloads: []workloads.Ref{loopRef(10_000)}, Techniques: []string{"ooo"}}

	first := startAsyncBatch(t, ts.URL, req)
	firstEvents := collectStream(t, c, first, api.StreamOptions{})

	second := startAsyncBatch(t, ts.URL, req)
	secondEvents := collectStream(t, c, second, api.StreamOptions{})

	var live, replayed []trace.Interval
	for _, ev := range firstEvents {
		if ev.Kind == api.EventInterval {
			live = append(live, *ev.Interval)
		}
	}
	sawReplay := false
	for _, ev := range secondEvents {
		if ev.Kind == api.EventInterval {
			if !ev.Replayed || !ev.Cached {
				t.Fatalf("cached cell streamed a non-replayed interval: %+v", ev)
			}
			sawReplay = true
			replayed = append(replayed, *ev.Interval)
		}
		if ev.Kind == api.EventCellDone && !ev.Cached {
			t.Fatalf("second run's cell not served from cache: %+v", ev)
		}
	}
	if !sawReplay {
		t.Fatal("cached cell streamed no replayed intervals")
	}
	want, _ := json.Marshal(live)
	got, _ := json.Marshal(replayed)
	if string(got) != string(want) {
		t.Errorf("replayed series != live series\nreplayed: %s\nlive:     %s", got, want)
	}
}

// TestStreamCellFilter: a per-cell subscription sees only that cell's
// events plus the job-scoped terminal event.
func TestStreamCellFilter(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceIntervalEvery: 1000})
	c := client.New(ts.URL)
	jobID := startAsyncBatch(t, ts.URL, api.BatchRequest{
		Workloads:  []workloads.Ref{loopRef(10_000)},
		Techniques: []string{"ooo", "dvr"},
	})
	cell := 1
	events := collectStream(t, c, jobID, api.StreamOptions{Cell: &cell})
	if len(events) == 0 {
		t.Fatal("filtered stream delivered nothing")
	}
	for _, ev := range events {
		if ev.Cell >= 0 && ev.Cell != cell {
			t.Fatalf("cell filter leaked cell %d: %+v", ev.Cell, ev)
		}
	}
	if last := events[len(events)-1]; last.Kind != api.EventJobDone {
		t.Fatalf("filtered stream missing job-done: last = %+v", last)
	}
}

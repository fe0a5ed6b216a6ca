package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dvr/internal/service/api"
	"dvr/internal/service/client"
	"dvr/internal/stream"
	"dvr/internal/trace"
	"dvr/internal/workloads"
)

// TestRelaySpliceMatchesRebuild: a frontend forwards a worker's telemetry
// as the worker's bytes behind a head of its own (Stream.NextRelay,
// relayed, frameEncoder). For every telemetry kind, cached and replayed
// set or not, the frame it writes must be byte for byte the one it writes
// for the same worker frame decoded in full, rebuilt and encoded again.
// Frames in any other form than encoding/json's must take that full path
// and give the same bytes.
func TestRelaySpliceMatchesRebuild(t *testing.T) {
	iv := &trace.Interval{Index: 3, StartInst: 15_000, EndInst: 20_000, StartCycle: 41_000, EndCycle: 53_345,
		Delta:         trace.Counters{ROBStallCycles: 811, DemandAccesses: 2_417, DemandDRAM: 95, PrefIssued: 300, PrefUseful: 211},
		MSHRHighWater: 9, IPC: 5000.0 / 12_345, MLP: 3.25, PrefAccuracy: 211.0 / 300, PrefCoverage: 0.1 / 3, ROBStallFrac: 1e-7}
	ep := &api.RunaheadEpisode{StartCycle: 41_100, EndCycle: 41_260, PC: 42, Lanes: 8, Reason: "stall"}
	const key = "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"
	encode := func(ev api.Event) string {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	// The worker names the cell's workload its own way; on both paths the
	// frontend's names replace the worker's.
	worker := api.Event{ID: 17, JobID: "job-5", Cell: 1, Key: key, Bench: "bfs-worker", Technique: "dvr-worker"}

	type frame struct {
		name    string
		data    string
		spliced bool
	}
	var frames []frame
	for _, kind := range []string{api.EventInterval, api.EventRunahead, api.EventCellStarted} {
		for _, flags := range []struct{ cached, replayed bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			ev := worker
			ev.Kind, ev.Cached, ev.Replayed = kind, flags.cached, flags.replayed
			switch kind {
			case api.EventInterval:
				ev.Interval = iv
			case api.EventRunahead:
				ev.Episode = ep
			}
			frames = append(frames, frame{fmt.Sprintf("%s/cached=%v/replayed=%v", kind, flags.cached, flags.replayed), encode(ev), true})
		}
	}
	canon := worker
	canon.Kind, canon.Cached, canon.Replayed, canon.Interval = api.EventInterval, true, true, iv
	c := encode(canon)
	for _, off := range []struct{ name, old, new string }{
		{"escaped-job-id", `"job_id":"job-5"`, `"job_id":"job\u002d5"`},
		{"escaped-key", `"key":"9f86`, `"key":"\u00399f86`},
		{"kind-before-id", `{"id":17,"kind":"interval"`, `{"kind":"interval","id":17`},
		{"key-after-bench", `"key":"` + key + `","bench":"bfs-worker"`, `"bench":"bfs-worker","key":"` + key + `"`},
		{"replayed-before-cached", `"cached":true,"replayed":true`, `"replayed":true,"cached":true`},
		{"space-in-head", `"cell":1`, `"cell": 1`},
		{"space-in-tail", `"cached":true`, `"cached": true`},
		{"newline-in-tail", `,"interval"`, "\n,\"interval\""},
		{"progress-counters", `"rob_stall_frac":1e-7}`, `"rob_stall_frac":1e-7},"done":2,"total":6`},
	} {
		if !strings.Contains(c, off.old) {
			t.Fatalf("%s: %q not in %s", off.name, off.old, c)
		}
		frames = append(frames, frame{off.name, strings.Replace(c, off.old, off.new, 1), false})
	}

	// The worker's stream: every frame, then its job-done.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for i, f := range frames {
			// A data line holds no newline, so one split over lines is
			// sent as SSE continues it.
			fmt.Fprintf(w, "id: %d\nevent: x\ndata: %s\n\n", i+1, strings.ReplaceAll(f.data, "\n", "\ndata: "))
		}
		fmt.Fprint(w, "id: 999\nevent: job-done\ndata: {\"id\":999,\"kind\":\"job-done\",\"job_id\":\"job-5\",\"cell\":-1}\n\n")
	}))
	defer ts.Close()

	// Both paths publish into the first job of a frontend of their own, so
	// their job and event ids run alike, and are written by the SSE
	// writer's encoder.
	list := []api.CellRequest{{}, {Workload: workloads.Ref{Kernel: "bfs"}, Technique: "dvr"}}
	relay := func() (*cellAnnouncer, *stream.Session) {
		fe, err := NewFrontend(FrontendConfig{Replicas: []string{ts.URL}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = fe.Shutdown(context.Background()) })
		j, _ := fe.jobs.create(len(list), "", fe.streams)
		return newCellAnnouncer(j, list), j.bc.Subscribe(stream.SubOptions{})
	}
	spliceAnn, spliceSess := relay()
	fullAnn, fullSess := relay()
	enc := newFrameEncoder()
	written := func(sess *stream.Session) string {
		ev, ok, err := sess.TryNext()
		if !ok || err != nil {
			t.Fatalf("relayed event not published: %v %v", ok, err)
		}
		out, err := enc.frame(&ev)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}

	st := client.New(ts.URL).Stream(context.Background(), "job-5", api.StreamOptions{})
	defer st.Close()
	for _, f := range frames {
		ev, err := st.NextRelay()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if got := ev.Tail != nil; got != f.spliced {
			t.Errorf("%s: kept as bytes = %v, want %v", f.name, got, f.spliced)
		}
		var full api.Event
		if err := json.Unmarshal([]byte(f.data), &full); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		spliceAnn.relay(1, relayed(ev))
		fullAnn.relay(1, relayed(full))
		if got, want := written(spliceSess), written(fullSess); got != want {
			t.Errorf("%s: relayed frame differs from the rebuilt one\ngot:  %s\nwant: %s", f.name, got, want)
		}
	}
	if ev, err := st.NextRelay(); err != nil || ev.Kind != api.EventJobDone || ev.Tail != nil {
		t.Errorf("after the telemetry: %s (kept as bytes %v), %v; want job-done decoded in full", ev.Kind, ev.Tail != nil, err)
	}
}

// TestStreamLingerNeverHoldsTerminal: the SSE writer holds telemetry for
// its linger but never a cell-done, a job-done or the end of its stream.
// Telemetry published during a linger and a cell-done after it reach the
// subscriber together and in order, long before the linger would end, and
// so does a cell-done on its own; a lone telemetry event is flushed when
// the default linger ends; and the end of the job, or of the client, ends
// the stream during a linger.
func TestStreamLingerNeverHoldsTerminal(t *testing.T) {
	const slack = 2 * time.Second
	serve := func(t *testing.T, linger time.Duration) (*job, *flushRecorder, context.CancelFunc, chan struct{}) {
		srv := New(Config{Common: Common{StreamHeartbeat: time.Hour}})
		t.Cleanup(func() { shutdown(t, srv) })
		srv.linger = linger
		j, _ := srv.jobs.create(1, "", srv.streams)
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		w := newFlushRecorder()
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.id+"/stream", nil).WithContext(ctx))
		}()
		for j.bc.Subscribers() == 0 {
			time.Sleep(time.Millisecond)
		}
		return j, w, cancel, served
	}
	// waitFlushes waits until w has had n flushes, and returns the body.
	waitFlushes := func(t *testing.T, w *flushRecorder, n int, within time.Duration) string {
		t.Helper()
		deadline := time.Now().Add(within)
		for {
			body, flushes := w.snapshot()
			if flushes >= n {
				return body
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d flushes after %v, want %d; body so far:\n%s", flushes, within, n, body)
			}
			time.Sleep(time.Millisecond)
		}
	}
	interval := api.Event{Kind: api.EventInterval, Interval: &trace.Interval{Index: 1}}

	t.Run("cell-done-ends-linger", func(t *testing.T) {
		j, w, _, _ := serve(t, time.Hour)
		waitFlushes(t, w, 1, slack) // the response header
		j.bc.Publish(interval)
		time.Sleep(50 * time.Millisecond) // the writer is in its linger
		j.bc.Publish(interval)
		if body, flushes := w.snapshot(); flushes != 1 {
			t.Fatalf("telemetry flushed during the linger (%d flushes):\n%s", flushes, body)
		}
		j.bc.Publish(api.Event{Kind: api.EventCellDone, Cell: 0, Done: 1, Total: 1})
		body := waitFlushes(t, w, 2, slack)
		if got := fmt.Sprint(frameIDs(t, body)); got != "[1 2 3]" {
			t.Errorf("frames %s reached the subscriber with the cell-done, want [1 2 3]", got)
		}
		if i, k := strings.Index(body, "event: interval"), strings.Index(body, "event: cell-done"); i < 0 || k < i {
			t.Errorf("the cell-done did not follow the telemetry:\n%s", body)
		}
		// A cell-done on its own, to a writer waiting for events, is not
		// held for a linger either.
		j.bc.Publish(api.Event{Kind: api.EventCellDone, Cell: 0, Done: 1, Total: 1})
		if got := fmt.Sprint(frameIDs(t, waitFlushes(t, w, 3, slack))); got != "[1 2 3 4]" {
			t.Errorf("frames %s after a lone cell-done, want [1 2 3 4]", got)
		}
	})

	t.Run("lone-telemetry", func(t *testing.T) {
		j, w, _, _ := serve(t, streamLinger)
		waitFlushes(t, w, 1, slack)
		j.bc.Publish(interval)
		if got := frameIDs(t, waitFlushes(t, w, 2, streamLinger+slack)); len(got) != 1 {
			t.Errorf("flushed frames %v, want the one event", got)
		}
	})

	for _, end := range []struct {
		name string
		do   func(j *job, cancel context.CancelFunc)
	}{
		{"job-end", func(j *job, _ context.CancelFunc) { j.bc.Close() }},
		{"client-gone", func(_ *job, cancel context.CancelFunc) { cancel() }},
	} {
		t.Run(end.name+"-ends-linger", func(t *testing.T) {
			j, w, cancel, served := serve(t, time.Hour)
			waitFlushes(t, w, 1, slack)
			j.bc.Publish(interval)
			time.Sleep(50 * time.Millisecond)
			end.do(j, cancel)
			select {
			case <-served:
			case <-time.After(slack):
				t.Fatalf("%s during a linger left the stream open", end.name)
			}
			if body, _ := w.snapshot(); len(frameIDs(t, body)) != 1 {
				t.Errorf("stream ended without its telemetry:\n%s", body)
			}
		})
	}
}

// TestClusterStreamMatchesSingleNode: a streamed job through the frontend
// delivers, cell by cell, the events a single node delivers for the same
// job (ids, job ids and done counts apart, which follow arrival order),
// its telemetry relayed as the workers' bytes.
func TestClusterStreamMatchesSingleNode(t *testing.T) {
	req := api.BatchRequest{
		Workloads:  []workloads.Ref{graphRef(8_000)},
		Techniques: []string{"ooo", "pre", "dvr"},
	}
	perCell := func(url string) map[int][]string {
		jobID := startAsyncBatch(t, url, req)
		out := make(map[int][]string)
		for _, ev := range collectStream(t, client.New(url, client.WithRetryPolicy(*fastRetry())), jobID, api.StreamOptions{}) {
			ev.ID, ev.JobID, ev.Done = 0, "", 0
			data, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			out[ev.Cell] = append(out[ev.Cell], string(data))
		}
		return out
	}
	_, single := newTestServer(t, Config{TraceIntervalEvery: 1000})
	want := perCell(single.URL)
	got := perCell(newTestCluster(t, 2, Config{TraceIntervalEvery: 1000}, nil).feTS.URL)
	for cell := -1; cell < len(req.Techniques); cell++ {
		w, g := want[cell], got[cell]
		if cell >= 0 && len(w) < 3 {
			t.Fatalf("single node streamed %d events for cell %d, want cell-started, telemetry and cell-done", len(w), cell)
		}
		if len(g) != len(w) {
			t.Errorf("cell %d: fleet streamed %d events, single node %d", cell, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("cell %d event %d differs\nfleet:  %s\nsingle: %s", cell, i, g[i], w[i])
				break
			}
		}
	}
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvr/internal/cluster"
	"dvr/internal/cpu"
	"dvr/internal/faults"
	"dvr/internal/service/api"
	"dvr/internal/service/client"
	"dvr/internal/workloads"
)

// Cluster tests: a frontend plus a small worker fleet wired together
// in-process over httptest servers. The invariant every test closes on is
// the repo's north star — figures are bit-identical no matter how the
// work is spread, failed over, or resumed — so each scenario compares the
// cluster's answers against a single standalone server byte-for-byte.

// fastRetry is a retry policy scaled for in-process tests: dead-replica
// detection takes tens of milliseconds instead of the production
// default's 15-second budget.
func fastRetry() *client.RetryPolicy {
	return &client.RetryPolicy{MaxAttempts: 3, BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond, Budget: 100 * time.Millisecond}
}

// testCluster is one frontend over n worker replicas, with a shared
// fault-injecting transport between them for chaos scenarios.
type testCluster struct {
	fe      *Frontend
	feTS    *httptest.Server
	workers []*Server
	wTS     []*httptest.Server
	nf      *faults.NetFaults
	ring    *cluster.Ring
	killed  []bool
}

// newTestCluster builds n workers with wcfg each (so a shared
// Config.CacheDir gives the fleet a common durable directory) and a
// frontend routing over them with test-speed probes and retries. tune, if
// non-nil, adjusts the frontend config before construction.
func newTestCluster(t *testing.T, n int, wcfg Config, tune func(*FrontendConfig)) *testCluster {
	t.Helper()
	c := &testCluster{nf: &faults.NetFaults{}, killed: make([]bool, n)}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := New(wcfg)
		ts := httptest.NewServer(srv.Handler())
		c.workers = append(c.workers, srv)
		c.wTS = append(c.wTS, ts)
		urls[i] = ts.URL
	}
	fcfg := FrontendConfig{
		Replicas:      urls,
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		FailThreshold: 2,
		Seed:          7,
		RetryPolicy:   fastRetry(),
		Common:        Common{Faults: &faults.Injector{Net: c.nf}},
	}
	if tune != nil {
		tune(&fcfg)
	}
	fe, err := NewFrontend(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	c.fe = fe
	c.feTS = httptest.NewServer(fe.Handler())
	ring, err := cluster.New(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.ring = ring
	t.Cleanup(func() {
		c.feTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = fe.Shutdown(ctx)
		for i := range c.workers {
			if c.killed[i] {
				continue
			}
			c.wTS[i].Close()
			_ = c.workers[i].Shutdown(ctx)
		}
	})
	return c
}

// kill is the in-process SIGKILL: the worker's host is partitioned off
// (every future frontend request to it fails at the transport), its root
// context is cancelled (in-flight simulations stop at their next
// cancellation check, leaving any checkpoint journal on disk), and its
// listener plus live connections are torn down.
func (c *testCluster) kill(t *testing.T, i int) {
	t.Helper()
	c.killed[i] = true
	c.nf.Partition(strings.TrimPrefix(c.wTS[i].URL, "http://"))
	c.workers[i].Abort()
	c.wTS[i].CloseClientConnections()
	c.wTS[i].Close()
}

// ownerOf returns the worker index that owns key on the ring (the same
// ring the frontend routes by: same member set, same vnode count).
func (c *testCluster) ownerOf(t *testing.T, key string) int {
	t.Helper()
	owner := c.ring.Owner(key)
	for i, ts := range c.wTS {
		if ts.URL == owner {
			return i
		}
	}
	t.Fatalf("owner %q is not a cluster member", owner)
	return -1
}

// waitForFile polls until path exists (a checkpoint journal landing).
func waitForFile(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never appeared", path)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// keyFor computes a cell's content address the same way both roles do.
func keyFor(t *testing.T, ref workloads.Ref, tech string) string {
	t.Helper()
	spec, err := workloads.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	return CacheKey(spec.Ref, tech, cpu.DefaultConfig())
}

// canonical renders a batch's per-cell results in comparison form.
func canonical(t *testing.T, cells []api.SimResponse) []string {
	t.Helper()
	out := make([]string, len(cells))
	for i, c := range cells {
		if c.Error != nil {
			t.Fatalf("cell %d failed: %s: %s", i, c.Error.Code, c.Error.Error)
		}
		b, err := json.Marshal(c.Result.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = c.Key + "\n" + string(b)
	}
	return out
}

// runBaseline answers req on a fresh standalone server: the ground truth
// a cluster answer must match byte-for-byte.
func runBaseline(t *testing.T, req api.BatchRequest) []string {
	t.Helper()
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline batch: %s: %s", resp.Status, body)
	}
	var batch api.BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	return canonical(t, batch.Cells)
}

// TestClusterBatchBitIdenticalVsSingleNode shards a synchronous batch
// over two healthy workers and requires the exact bytes a standalone
// server produces, a fully cached second pass, and routing metrics that
// account for every cell.
func TestClusterBatchBitIdenticalVsSingleNode(t *testing.T) {
	req := api.BatchRequest{
		Workloads:  []workloads.Ref{loopRef(20_000), loopRef(30_000), loopRef(40_000)},
		Techniques: []string{"ooo", "dvr"},
	}
	want := runBaseline(t, req)

	c := newTestCluster(t, 2, Config{}, nil)
	resp, body := postJSON(t, c.feTS.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster batch: %s: %s", resp.Status, body)
	}
	var batch api.BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	got := canonical(t, batch.Cells)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d differs from single-node run:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	misses := c.workers[0].Metrics().CacheMisses + c.workers[1].Metrics().CacheMisses
	if misses != uint64(len(want)) {
		t.Errorf("fleet simulated %d cells, want %d", misses, len(want))
	}

	// Second pass: every cell is a cache hit on whichever worker owns it.
	resp, body = postJSON(t, c.feTS.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second cluster batch: %s: %s", resp.Status, body)
	}
	var second api.BatchResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != len(want) {
		t.Errorf("second pass: %d/%d cache hits", second.CacheHits, len(want))
	}

	m := c.fe.Metrics()
	if m.RoutedTotal < uint64(2*len(want)) {
		t.Errorf("RoutedTotal = %d, want >= %d", m.RoutedTotal, 2*len(want))
	}
	if m.Failovers != 0 || m.FailoverExhausted != 0 {
		t.Errorf("healthy fleet reported failovers: %d routed-over, %d exhausted", m.Failovers, m.FailoverExhausted)
	}
	if m.ReplicasUp != 2 || m.ReplicasDead != 0 {
		t.Errorf("replica counts = %d up / %d dead, want 2 / 0", m.ReplicasUp, m.ReplicasDead)
	}

	// The same snapshot over both /metrics representations.
	httpReq, _ := http.NewRequest(http.MethodGet, c.feTS.URL+"/metrics", nil)
	httpReq.Header.Set("Accept", "text/plain")
	promResp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	promBody, _ := io.ReadAll(promResp.Body)
	promResp.Body.Close()
	for _, series := range []string{
		`dvrd_cluster_replicas{state="up"} 2`,
		"dvrd_cluster_routed_total",
		"dvrd_cluster_probes_total",
		"dvrd_cluster_replica_up{replica=",
		"dvrd_request_duration_seconds_bucket",
	} {
		if !strings.Contains(string(promBody), series) {
			t.Errorf("Prometheus exposition missing %q", series)
		}
	}
	var jm api.ClusterMetrics
	jresp, jbody := getBody(t, c.feTS.URL+"/metrics")
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s", jresp.Status)
	}
	if err := json.Unmarshal(jbody, &jm); err != nil {
		t.Fatal(err)
	}
	if jm.Role != "frontend" || jm.ReplicasUp != 2 {
		t.Errorf("JSON metrics = role %q, %d up", jm.Role, jm.ReplicasUp)
	}
}

// inFlight is how many cells the frontend counts as in flight.
func (l *inflight) inFlight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// ownedBy returns n quick cells whose ring owner is worker w.
func (c *testCluster) ownedBy(t *testing.T, w, n int) []workloads.Ref {
	t.Helper()
	var refs []workloads.Ref
	for roi := uint64(20_000); len(refs) < n; roi += 1_000 {
		if ref := loopRef(roi); c.ownerOf(t, keyFor(t, ref, "ooo")) == w {
			refs = append(refs, ref)
		}
	}
	return refs
}

// TestClusterBoundedLoadSpreadsSkewedBatch: a batch whose cells all hash
// to worker 0 is spread so that no replica takes more than ⌈1.25·n/2⌉ of
// them, the frontend.dispatch spans count the cells moved off their owner,
// the results are a single node's, and an idle frontend still sends a
// lone cell to its owner. The same batch submitted twice at once
// simulates each cell once: a key in flight goes where it already runs.
func TestClusterBoundedLoadSpreadsSkewedBatch(t *testing.T) {
	const n = 6
	limit := (loadNum*n + loadDen*2 - 1) / (loadDen * 2)
	sims := func(c *testCluster) []uint64 {
		return []uint64{c.workers[0].Metrics().SimsCompleted, c.workers[1].Metrics().SimsCompleted}
	}

	t.Run("spread", func(t *testing.T) {
		c := newTestCluster(t, 2, Config{}, func(fc *FrontendConfig) { fc.TraceSpans = 4096 })
		refs := c.ownedBy(t, 0, n+1)
		req := api.BatchRequest{Workloads: refs[:n], Techniques: []string{"ooo"}}
		want := runBaseline(t, req)

		jobID := startAsyncBatch(t, c.feTS.URL, req)
		js := waitJobDone(t, c.feTS.URL, jobID)
		if js.State != api.JobDone || js.Batch == nil {
			t.Fatalf("job ended %s: %s", js.State, js.Error)
		}
		got := canonical(t, js.Batch.Cells)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("cell %d differs from single-node run:\n got %s\nwant %s", i, got[i], want[i])
			}
		}
		ran := sims(c)
		if ran[0]+ran[1] != n || ran[0] > uint64(limit) || ran[1] > uint64(limit) {
			t.Errorf("workers simulated %v of %d cells all owned by worker 0, want each <= %d", ran, n, limit)
		}

		tresp, tbody := getBody(t, c.feTS.URL+"/v1/jobs/"+jobID+"/trace?view=cluster")
		var ct api.ClusterTrace
		if tresp.StatusCode != http.StatusOK || json.Unmarshal(tbody, &ct) != nil {
			t.Fatalf("cluster trace: %s: %s", tresp.Status, tbody)
		}
		offOwner := 0
		for _, sl := range ct.Slices {
			for _, sp := range sl.Spans {
				if sp.Name == "frontend.dispatch" {
					k, err := strconv.Atoi(sp.Attrs.Get("off_owner"))
					if err != nil {
						t.Fatalf("dispatch span off_owner = %q: %v", sp.Attrs.Get("off_owner"), err)
					}
					offOwner += k
				}
			}
		}
		if uint64(offOwner) != ran[1] {
			t.Errorf("dispatch spans count %d cells off their owner, worker 1 ran %d", offOwner, ran[1])
		}

		// Idle again, the frontend sends a lone cell to its owner.
		resp, body := postJSON(t, c.feTS.URL+"/v1/batch", api.BatchRequest{Workloads: refs[n:], Techniques: []string{"ooo"}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lone cell: %s: %s", resp.Status, body)
		}
		if after := sims(c); after[0] != ran[0]+1 || after[1] != ran[1] {
			t.Errorf("lone cell owned by worker 0: simulations %v -> %v, want worker 0 one more", ran, after)
		}
		if l := c.fe.load.inFlight(); l != 0 {
			t.Errorf("idle frontend counts %d cells in flight", l)
		}
	})

	t.Run("duplicate", func(t *testing.T) {
		gate := make(chan struct{})
		release := sync.OnceFunc(func() { close(gate) })
		defer release()
		c := newTestCluster(t, 2, Config{Common: Common{Faults: &faults.Injector{BeforeSim: func(string) { <-gate }}}}, nil)
		req := api.BatchRequest{Workloads: c.ownedBy(t, 0, n), Techniques: []string{"ooo"}}
		want := runBaseline(t, req)

		ids := []string{startAsyncBatch(t, c.feTS.URL, req), startAsyncBatch(t, c.feTS.URL, req)}
		// No cell can finish before both jobs' cells are placed.
		deadline := time.Now().Add(30 * time.Second)
		for c.fe.load.inFlight() < 2*n {
			if time.Now().After(deadline) {
				t.Fatalf("frontend placed %d of %d cells", c.fe.load.inFlight(), 2*n)
			}
			time.Sleep(time.Millisecond)
		}
		release()
		for _, id := range ids {
			js := waitJobDone(t, c.feTS.URL, id)
			if js.State != api.JobDone || js.Batch == nil {
				t.Fatalf("job %s ended %s: %s", id, js.State, js.Error)
			}
			got := canonical(t, js.Batch.Cells)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("job %s cell %d differs from single-node run:\n got %s\nwant %s", id, i, got[i], want[i])
				}
			}
		}
		if ran := sims(c); ran[0]+ran[1] != n {
			t.Errorf("two submissions of %d cells ran %v simulations, want %d in all", n, ran, n)
		}
	})
}

// TestClusterStreamPassthrough subscribes to a frontend job's SSE stream
// while its cells run on different workers and checks the republished
// feed keeps the frontend's cell coordinates, delivers live interval
// telemetry, and finishes with the frontend's own cell-done / job-done
// accounting (one cell-done per cell, worker job identity never leaks).
func TestClusterStreamPassthrough(t *testing.T) {
	c := newTestCluster(t, 2, Config{TraceIntervalEvery: 5_000}, nil)
	req := api.BatchRequest{
		Workloads:  []workloads.Ref{loopRef(20_000), loopRef(30_000), loopRef(40_000)},
		Techniques: []string{"ooo"},
		Async:      true,
	}
	resp, body := postJSON(t, c.feTS.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async batch: %s: %s", resp.Status, body)
	}
	var acc api.BatchResponse
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}

	cl := client.New(c.feTS.URL, client.WithRetryPolicy(*fastRetry()))
	st := cl.Stream(context.Background(), acc.JobID, api.StreamOptions{})
	defer st.Close()
	cellDone := make(map[int]int)
	intervals := 0
	sawJobDone := false
	for {
		ev, err := st.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch ev.Kind {
		case api.EventCellDone:
			cellDone[ev.Cell]++
			if ev.Done < 1 || ev.Done > 3 || ev.Total != 3 {
				t.Errorf("cell-done progress %d/%d out of range", ev.Done, ev.Total)
			}
		case api.EventInterval:
			intervals++
			if ev.Cell < 0 || ev.Cell > 2 {
				t.Errorf("interval event for out-of-range cell %d", ev.Cell)
			}
			if ev.Interval == nil {
				t.Error("interval event without a sample")
			}
		case api.EventJobDone:
			sawJobDone = true
			if ev.Done != 3 || ev.Total != 3 {
				t.Errorf("job-done progress %d/%d, want 3/3", ev.Done, ev.Total)
			}
		}
	}
	for i := 0; i < 3; i++ {
		if cellDone[i] != 1 {
			t.Errorf("cell %d got %d cell-done events, want exactly 1", i, cellDone[i])
		}
	}
	if intervals == 0 {
		t.Error("no interval telemetry passed through the frontend stream")
	}
	if !sawJobDone {
		t.Error("stream ended without job-done")
	}

	stFinal := waitJobDone(t, c.feTS.URL, acc.JobID)
	if stFinal.State != api.JobDone || stFinal.Batch == nil || stFinal.Batch.Failed != 0 {
		t.Fatalf("job ended %s (batch %+v)", stFinal.State, stFinal.Batch)
	}

	// The frontend aggregates no trace store; the route answers a typed
	// 404 pointing subscribers at the stream.
	tresp, tbody := getBody(t, c.feTS.URL+"/v1/jobs/"+acc.JobID+"/trace")
	if tresp.StatusCode != http.StatusNotFound {
		t.Fatalf("frontend trace: %s, want 404", tresp.Status)
	}
	var terr api.Error
	if err := json.Unmarshal(tbody, &terr); err != nil || terr.Code != api.CodeNotFound {
		t.Errorf("frontend trace error not typed: %s (%v)", tbody, err)
	}
}

// TestClusterStreamCellDoneWhenCellEnds: a fleet cell is announced done
// when its worker finishes it, not when the worker's whole sub-batch
// does. Both cells of a two-cell job land on the one worker, and the
// second cannot start simulating until the test has read the first
// cell's cell-done from the frontend stream and seen the job report
// done:1.
func TestClusterStreamCellDoneWhenCellEnds(t *testing.T) {
	first, second := loopRef(20_000), loopRef(30_000)
	held := keyFor(t, second, "ooo")
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	c := newTestCluster(t, 1, Config{Workers: 2, Common: Common{Faults: &faults.Injector{BeforeSim: func(key string) {
		if key == held {
			<-gate
		}
	}}}}, nil)
	jobID := startAsyncBatch(t, c.feTS.URL, api.BatchRequest{
		Workloads:  []workloads.Ref{first, second},
		Techniques: []string{"ooo"},
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st := client.New(c.feTS.URL, client.WithRetryPolicy(*fastRetry())).Stream(ctx, jobID,
		api.StreamOptions{Kinds: []string{api.EventCellDone, api.EventJobDone}})
	defer st.Close()
	ev, err := st.Next()
	if err != nil {
		t.Fatalf("no cell-done while the second cell is held: %v", err)
	}
	if ev.Kind != api.EventCellDone || ev.Cell != 0 || ev.Done != 1 || ev.Total != 2 {
		t.Fatalf("first event = %s cell %d %d/%d, want cell-done cell 0 1/2", ev.Kind, ev.Cell, ev.Done, ev.Total)
	}
	resp, body := getBody(t, c.feTS.URL+"/v1/jobs/"+jobID)
	var js api.JobStatus
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &js) != nil {
		t.Fatalf("job status: %s: %s", resp.Status, body)
	}
	if js.State != api.JobRunning || js.Done != 1 {
		t.Errorf("job status while the second cell is held = %s done:%d, want running done:1", js.State, js.Done)
	}

	release()
	var rest []string
	for {
		ev, err := st.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rest = append(rest, fmt.Sprintf("%s:%d:%d/%d", ev.Kind, ev.Cell, ev.Done, ev.Total))
	}
	if want := "[cell-done:1:2/2 job-done:-1:2/2]"; fmt.Sprint(rest) != want {
		t.Errorf("events after the release = %v, want %s", rest, want)
	}
}

// TestClusterStreamFailoverAfterCellDone: the worker holding a two-cell
// group dies after its first cell's cell-done reached the frontend, and
// the survivor takes the whole group over. Every cell still gets exactly
// one cell-done, Done counts 1..Total, nothing is relayed for a cell
// after its cell-done, and the final batch matches a single-node run byte
// for byte. The announcement keeps the first attempt's cached:false; the
// final result says cached, because the survivor answered the cell from
// the dead worker's spill.
func TestClusterStreamFailoverAfterCellDone(t *testing.T) {
	var held atomic.Value // the key whose simulation waits for the gate
	held.Store("")
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	c := newTestCluster(t, 2, Config{CacheDir: t.TempDir(), CheckpointEvery: 5_000, TraceIntervalEvery: 5_000, Workers: 2,
		Common: Common{Faults: &faults.Injector{BeforeSim: func(key string) {
			if key == held.Load() {
				<-gate
			}
		}}}}, nil)

	// Cells 0 and 1 are owned by worker 0 (the victim), cell 2 by worker 1.
	// The load bound leaves both on worker 0: cell 1 is placed with one
	// cell in flight, against a bound of ⌈1.25·2/2⌉ = 2.
	byOwner := map[int][]workloads.Ref{}
	for roi := uint64(20_000); len(byOwner[0]) < 2 || len(byOwner[1]) < 1; roi += 1_000 {
		ref := loopRef(roi)
		owner := c.ownerOf(t, keyFor(t, ref, "ooo"))
		byOwner[owner] = append(byOwner[owner], ref)
	}
	const victim, announced, heldCell = 0, 0, 1
	refs := []workloads.Ref{byOwner[0][0], byOwner[0][1], byOwner[1][0]}
	held.Store(keyFor(t, refs[heldCell], "ooo"))
	req := api.BatchRequest{Workloads: refs, Techniques: []string{"ooo"}}
	want := runBaseline(t, req)

	jobID := startAsyncBatch(t, c.feTS.URL, req)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st := client.New(c.feTS.URL, client.WithRetryPolicy(*fastRetry())).Stream(ctx, jobID, api.StreamOptions{})
	defer st.Close()
	var (
		dones    []int
		finished = map[int]api.Event{}
	)
	for {
		ev, err := st.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Cell < 0 {
			continue
		}
		if prev, ok := finished[ev.Cell]; ok {
			t.Errorf("cell %d: %s event after its cell-done (cached:%v)", ev.Cell, ev.Kind, prev.Cached)
		}
		if ev.Kind != api.EventCellDone {
			continue
		}
		finished[ev.Cell] = ev
		dones = append(dones, ev.Done)
		if ev.Cell == announced {
			c.kill(t, victim)
			release()
		}
	}
	if fmt.Sprint(dones) != "[1 2 3]" || len(finished) != 3 {
		t.Errorf("cell-done progress = %v over cells %v, want [1 2 3], one per cell", dones, finished)
	}
	if _, ok := finished[heldCell]; !ok {
		t.Errorf("held cell %d never announced", heldCell)
	}
	if finished[announced].Cached {
		t.Errorf("cell %d announced cached, want the first attempt's cached:false", announced)
	}

	js := waitJobDone(t, c.feTS.URL, jobID)
	if js.State != api.JobDone || js.Batch == nil || js.Done != 3 {
		t.Fatalf("job ended %s done:%d: %s", js.State, js.Done, js.Error)
	}
	if !js.Batch.Cells[announced].Cached {
		t.Errorf("cell %d's final result is not cached; the survivor should have answered it from the spill", announced)
	}
	got := canonical(t, js.Batch.Cells)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d differs from single-node run:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	if m := c.fe.Metrics(); m.Failovers == 0 {
		t.Error("no failovers recorded despite a dead worker")
	}
}

// TestClusterKillReplicaMidBatchFailover is the headline chaos scenario:
// a worker dies partway through a batch, after journaling checkpoints
// into the fleet's shared durable directory. Every cell must still
// complete — the dead worker's group re-routes to the survivor, which
// resumes the interrupted simulation from the journal instead of
// restarting it — and the figures must match an undisturbed single-node
// run byte-for-byte.
func TestClusterKillReplicaMidBatchFailover(t *testing.T) {
	slow := loopRef(400_000)
	req := api.BatchRequest{
		Workloads:  []workloads.Ref{slow, loopRef(20_000), loopRef(30_000), loopRef(40_000)},
		Techniques: []string{"ooo"},
	}
	want := runBaseline(t, req)

	dir := t.TempDir()
	c := newTestCluster(t, 2, Config{CacheDir: dir, CheckpointEvery: 5_000, Workers: 2}, nil)
	slowKey := keyFor(t, slow, "ooo")
	victim := c.ownerOf(t, slowKey)
	survivor := 1 - victim

	async := req
	async.Async = true
	resp, body := postJSON(t, c.feTS.URL+"/v1/batch", async)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async batch: %s: %s", resp.Status, body)
	}
	var acc api.BatchResponse
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}

	// Wait until the slow cell's own journal is on disk (the quick cells
	// checkpoint too, so the fleet-wide counter is not specific enough),
	// then kill its owner. The slow cell's ROI dwarfs the checkpoint
	// interval, so the kill always lands mid-simulation.
	waitForFile(t, filepath.Join(dir, "checkpoints", slowKey+".ckpt"))
	c.kill(t, victim)

	st := waitJobDone(t, c.feTS.URL, acc.JobID)
	if st.State != api.JobDone || st.Batch == nil {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	got := canonical(t, st.Batch.Cells)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d differs from undisturbed single-node run:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	if m := c.fe.Metrics(); m.Failovers == 0 {
		t.Error("no failovers recorded despite a dead worker")
	}
	if rm := c.workers[survivor].Metrics(); rm.CheckpointsResumed == 0 {
		t.Error("survivor restarted the interrupted cell from scratch instead of resuming the dead worker's checkpoint")
	}
}

// TestClusterSingleFlightSurvivesOwnerDeath: two identical concurrent
// requests collapse onto the frontend's single-flight; the owning worker
// dies mid-simulation. Both callers must still get the (identical) result
// — the leader fails over to the survivor, which resumes the checkpoint —
// and the survivor must run the detailed simulation exactly once.
func TestClusterSingleFlightSurvivesOwnerDeath(t *testing.T) {
	slow := loopRef(400_000)
	dir := t.TempDir()
	c := newTestCluster(t, 2, Config{CacheDir: dir, CheckpointEvery: 5_000, Workers: 2}, nil)
	key := keyFor(t, slow, "ooo")
	victim := c.ownerOf(t, key)
	survivor := 1 - victim

	simReq := api.SimRequest{Workload: slow, Technique: "ooo"}
	type simOut struct {
		status int
		body   []byte
	}
	results := make(chan simOut, 2)
	for i := 0; i < 2; i++ {
		go func() {
			data, _ := json.Marshal(simReq)
			resp, err := http.Post(c.feTS.URL+"/v1/sim", "application/json", bytes.NewReader(data))
			if err != nil {
				results <- simOut{}
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			results <- simOut{resp.StatusCode, body}
		}()
	}

	waitForFile(t, filepath.Join(dir, "checkpoints", key+".ckpt"))
	c.kill(t, victim)

	var bodies []string
	for i := 0; i < 2; i++ {
		out := <-results
		if out.status != http.StatusOK {
			t.Fatalf("caller %d: status %d: %s", i, out.status, out.body)
		}
		var sr api.SimResponse
		if err := json.Unmarshal(out.body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Error != nil {
			t.Fatalf("caller %d: cell error %s", i, sr.Error.Error)
		}
		if sr.Key != key {
			t.Errorf("caller %d answered key %q, want %q", i, sr.Key, key)
		}
		cb, _ := json.Marshal(sr.Result.Canonical())
		bodies = append(bodies, string(cb))
	}
	if bodies[0] != bodies[1] {
		t.Errorf("the two callers got different results:\n%s\n%s", bodies[0], bodies[1])
	}
	if rm := c.workers[survivor].Metrics(); rm.CheckpointsResumed == 0 {
		t.Error("survivor did not resume the dead owner's checkpoint")
	} else if rm.CacheMisses != 1 {
		t.Errorf("survivor ran %d detailed simulations, want exactly 1", rm.CacheMisses)
	}
	if m := c.fe.Metrics(); m.Failovers == 0 {
		t.Error("no failover recorded despite the owner dying")
	}
}

// TestClusterDrainRouting: a draining worker keeps answering /healthz but
// flips /readyz to 503, the prober downgrades it, and new cells it owns
// route to the remaining up replica instead.
func TestClusterDrainRouting(t *testing.T) {
	c := newTestCluster(t, 2, Config{}, nil)

	// Find a cell owned by worker 0 so draining it is observable.
	var ref workloads.Ref
	roi := uint64(50_000)
	for {
		ref = loopRef(roi)
		if c.ownerOf(t, keyFor(t, ref, "ooo")) == 0 {
			break
		}
		roi += 1_000
	}

	rresp, rbody := getBody(t, c.wTS[0].URL+"/readyz")
	if rresp.StatusCode != http.StatusOK || !strings.Contains(string(rbody), "ready") {
		t.Fatalf("pre-drain readyz: %s %q", rresp.Status, rbody)
	}
	c.workers[0].BeginDrain()
	rresp, rbody = getBody(t, c.wTS[0].URL+"/readyz")
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %s %q", rresp.Status, rbody)
	}
	var rerr api.Error
	if err := json.Unmarshal(rbody, &rerr); err != nil || rerr.Code != api.CodeShuttingDown || !strings.Contains(rerr.Error, "draining") {
		t.Fatalf("draining readyz body not typed: %q (%v)", rbody, err)
	}
	if rresp.Header.Get("Retry-After") == "" {
		t.Error("draining readyz sets no Retry-After")
	}
	hresp, _ := getBody(t, c.wTS[0].URL+"/healthz")
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %s while draining, want 200 (liveness is not readiness)", hresp.Status)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		m := c.fe.Metrics()
		if m.ReplicasDraining == 1 && m.ReplicasUp == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never saw the drain: %+v", m)
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, body := postJSON(t, c.feTS.URL+"/v1/sim", api.SimRequest{Workload: ref, Technique: "ooo"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sim during drain: %s: %s", resp.Status, body)
	}
	if got := c.workers[1].Metrics().CacheMisses; got != 1 {
		t.Errorf("up replica simulated %d cells, want 1", got)
	}
	if got := c.workers[0].Metrics().CacheMisses; got != 0 {
		t.Errorf("draining owner still simulated %d cells, want 0", got)
	}
}

// TestClusterFlappingReplicaRanksLast: a replica that passes its readiness
// probe but drops every sim connection is demoted by its first data-path
// failure alone. With no probe due during the test, every cell it owns
// answers from the other worker, and only the first one fails over.
func TestClusterFlappingReplicaRanksLast(t *testing.T) {
	c := &testCluster{nf: &faults.NetFaults{}}
	for i := 0; i < 2; i++ {
		srv := New(Config{})
		inner := srv.Handler()
		h := inner
		if i == 0 {
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost && r.URL.Path == "/v1/sim" {
					conn, _, err := w.(http.Hijacker).Hijack()
					if err == nil {
						conn.Close()
					}
					return
				}
				inner.ServeHTTP(w, r)
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(func() {
			ts.Close()
			shutdown(t, srv)
		})
		c.workers = append(c.workers, srv)
		c.wTS = append(c.wTS, ts)
	}
	ring, err := cluster.New([]string{c.wTS[0].URL, c.wTS[1].URL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.ring = ring
	fe, feTS := newFrontendOver(t, c, func(fc *FrontendConfig) { fc.ProbeInterval = time.Hour })

	// Let the boot probes land first, so none can revive the replica
	// after its data-path failure.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := fe.Metrics()
		if m.ReplicasUp == 2 && m.Replicas[0].ProbesTotal > 0 && m.Replicas[1].ProbesTotal > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("boot probes never landed: %+v", m)
		}
		time.Sleep(2 * time.Millisecond)
	}

	sent := 0
	for roi := uint64(50_000); sent < 4; roi += 1_000 {
		ref := loopRef(roi)
		if c.ownerOf(t, keyFor(t, ref, "ooo")) != 0 {
			continue
		}
		sent++
		resp, body := postJSON(t, feTS.URL+"/v1/sim", api.SimRequest{Workload: ref, Technique: "ooo"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sim %d owned by the flapping replica: %s: %s", sent, resp.Status, body)
		}
	}
	if got := c.workers[1].Metrics().SimsCompleted; got != 4 {
		t.Errorf("healthy replica simulated %d cells, want 4", got)
	}
	m := fe.Metrics()
	if m.Failovers != 1 {
		t.Errorf("failovers = %d, want 1 (only the first cell tries the flapping replica)", m.Failovers)
	}
	for _, r := range m.Replicas {
		if r.Name == c.wTS[0].URL && r.State != "dead" {
			t.Errorf("flapping replica reads %q, want dead", r.State)
		}
	}
}

// TestClusterNetFaultStorm runs a batch through a transport that refuses,
// resets mid-body, and delays on a schedule. The client retry budget and
// failover machinery must absorb all of it: the batch completes with
// every figure byte-identical to a fault-free single-node run.
func TestClusterNetFaultStorm(t *testing.T) {
	req := api.BatchRequest{
		Workloads:  []workloads.Ref{loopRef(21_000), loopRef(31_000), loopRef(41_000)},
		Techniques: []string{"ooo", "dvr"},
	}
	want := runBaseline(t, req)

	c := newTestCluster(t, 2, Config{}, func(fc *FrontendConfig) {
		fc.RetryPolicy = &client.RetryPolicy{MaxAttempts: 5, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Budget: time.Second}
	})
	c.nf.Schedule(4, 5, 64, 3, time.Millisecond)

	resp, body := postJSON(t, c.feTS.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch under fault storm: %s: %s", resp.Status, body)
	}
	var batch api.BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Failed != 0 {
		t.Fatalf("%d cells failed under the fault storm", batch.Failed)
	}
	got := canonical(t, batch.Cells)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d differs under fault injection:\n got %s\nwant %s", i, got[i], want[i])
		}
	}

	// Churn the transport with individual (cached) cells until every fault
	// in the schedule has demonstrably fired at least once.
	for n := 0; n < 40; n++ {
		sresp, sbody := postJSON(t, c.feTS.URL+"/v1/sim", api.SimRequest{Workload: req.Workloads[n%3], Technique: req.Techniques[n%2]})
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("sim %d under fault storm: %s: %s", n, sresp.Status, sbody)
		}
		var sr api.SimResponse
		if err := json.Unmarshal(sbody, &sr); err != nil {
			t.Fatal(err)
		}
		wantCell := got[(n%3)*2+n%2]
		cb, _ := json.Marshal(sr.Result.Canonical())
		if gotCell := sr.Key + "\n" + string(cb); gotCell != wantCell {
			t.Errorf("sim %d differs under fault injection:\n got %s\nwant %s", n, gotCell, wantCell)
		}
	}
	refused, resets, delayed := c.nf.Counters()
	if refused == 0 || resets == 0 || delayed == 0 {
		t.Errorf("fault schedule did not fire: refused=%d resets=%d delayed=%d", refused, resets, delayed)
	}
}

// TestClusterExhaustedFleetFailsTyped: with every replica dead, routing
// answers 503 + Retry-After with the typed shutting-down code, so a
// retrying client treats the outage as transient.
func TestClusterExhaustedFleetFailsTyped(t *testing.T) {
	c := newTestCluster(t, 2, Config{}, nil)
	c.kill(t, 0)
	c.kill(t, 1)

	resp, body := postJSON(t, c.feTS.URL+"/v1/sim", api.SimRequest{Workload: loopRef(25_000), Technique: "ooo"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sim with no replicas: %s: %s", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("exhausted routing sets no Retry-After")
	}
	var ae api.Error
	if err := json.Unmarshal(body, &ae); err != nil || ae.Code != api.CodeShuttingDown {
		t.Errorf("exhausted routing error not typed: %s (%v)", body, err)
	}
	if m := c.fe.Metrics(); m.FailoverExhausted == 0 {
		t.Error("exhausted routing not counted")
	}
}

// TestClusterTraceSpanTreeSurvivesFailover is the distributed-tracing
// chaos scenario: an async batch runs with span tracing on across both
// tiers, the worker owning the slow cell is killed mid-simulation, and
// the merged cluster trace must still be one connected span tree — a
// single root trace id shared by frontend and surviving worker cells,
// every span's parent present, and the failover attempt recorded as a
// dispatch span. The traced run must also stay bit-identical to an
// untraced single-node baseline (tracing is observation, never effect).
func TestClusterTraceSpanTreeSurvivesFailover(t *testing.T) {
	slow := loopRef(400_000)
	req := api.BatchRequest{
		Workloads:  []workloads.Ref{slow, loopRef(20_000), loopRef(30_000)},
		Techniques: []string{"ooo"},
	}
	want := runBaseline(t, req) // untraced ground truth

	dir := t.TempDir()
	c := newTestCluster(t, 2,
		Config{CacheDir: dir, CheckpointEvery: 5_000, Workers: 2, Common: Common{TraceSpans: 4096}},
		func(fc *FrontendConfig) { fc.TraceSpans = 4096 })
	slowKey := keyFor(t, slow, "ooo")
	victim := c.ownerOf(t, slowKey)

	async := req
	async.Async = true
	resp, body := postJSON(t, c.feTS.URL+"/v1/batch", async)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async batch: %s: %s", resp.Status, body)
	}
	var acc api.BatchResponse
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}

	waitForFile(t, filepath.Join(dir, "checkpoints", slowKey+".ckpt"))
	c.kill(t, victim)

	st := waitJobDone(t, c.feTS.URL, acc.JobID)
	if st.State != api.JobDone || st.Batch == nil {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	got := canonical(t, st.Batch.Cells)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d differs from untraced single-node run:\n got %s\nwant %s", i, got[i], want[i])
		}
	}

	// The merged fleet view: GET /v1/jobs/{id}/trace?view=cluster.
	tresp, tbody := getBody(t, c.feTS.URL+"/v1/jobs/"+acc.JobID+"/trace?view=cluster")
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("cluster trace: %s: %s", tresp.Status, tbody)
	}
	var ct api.ClusterTrace
	if err := json.Unmarshal(tbody, &ct); err != nil {
		t.Fatal(err)
	}
	if ct.TraceID == "" {
		t.Fatal("cluster trace has no trace id")
	}

	ids := map[string]bool{}
	roots, workerSpans, failoverDispatches := 0, 0, 0
	for _, sl := range ct.Slices {
		for _, sp := range sl.Spans {
			if sp.TraceID != ct.TraceID {
				t.Errorf("span %s (%s) carries trace %s, want %s", sp.SpanID, sp.Name, sp.TraceID, ct.TraceID)
			}
			ids[sp.SpanID] = true
		}
	}
	for _, sl := range ct.Slices {
		if sl.Err != "" {
			continue // the killed victim's slice is an error marker
		}
		if strings.HasPrefix(sl.Proc, "worker") && len(sl.Spans) > 0 {
			workerSpans += len(sl.Spans)
		}
		for _, sp := range sl.Spans {
			if sp.ParentID == "" {
				roots++
			} else if !ids[sp.ParentID] {
				t.Errorf("span %s (%s) has parent %s outside the collected tree", sp.SpanID, sp.Name, sp.ParentID)
			}
			if sp.Name == "frontend.dispatch" && sp.Attrs.Get("outcome") == "failover" {
				failoverDispatches++
			}
		}
	}
	if roots != 1 {
		t.Errorf("cluster trace has %d parentless spans, want exactly 1 (the accepting request)", roots)
	}
	if workerSpans == 0 {
		t.Error("no worker spans joined the frontend's trace — X-Trace-Ctx did not propagate")
	}
	if failoverDispatches == 0 {
		t.Error("no dispatch span recorded the failover attempt")
	}

	// The dropped-span accounting is visible fleet-wide.
	if m := c.fe.Metrics(); m.ObsSpans == 0 {
		t.Error("frontend reports no collected spans")
	}
}

// TestClusterTraceAndRequestIDPropagation drives a W3C-style X-Trace-Ctx
// header and a caller-minted X-Request-ID through the frontend→worker hop
// and checks both survive: the frontend echoes the inbound request id,
// and the owning worker's span slice for the caller's trace id contains
// the worker-side request span still carrying that same request id.
func TestClusterTraceAndRequestIDPropagation(t *testing.T) {
	c := newTestCluster(t, 2, Config{Common: Common{TraceSpans: 256}},
		func(fc *FrontendConfig) { fc.TraceSpans = 256 })
	ref := loopRef(25_000)
	key := keyFor(t, ref, "ooo")
	owner := c.ownerOf(t, key)

	const tid = "00000000000000000000000000abcdef"
	data, _ := json.Marshal(api.SimRequest{Workload: ref, Technique: "ooo"})
	hreq, _ := http.NewRequest(http.MethodPost, c.feTS.URL+"/v1/sim", bytes.NewReader(data))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(api.HeaderTraceCtx, "00-"+tid+"-00000000000000ab")
	hreq.Header.Set(api.HeaderRequestID, "req-edge-42")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("sim: %s: %s", resp.Status, b)
	}
	if got := resp.Header.Get(api.HeaderRequestID); got != "req-edge-42" {
		t.Errorf("frontend echoed request id %q, want the caller's req-edge-42", got)
	}

	// The frontend's own slice continues the caller's trace...
	fresp, fbody := getBody(t, c.feTS.URL+"/v1/spans?trace="+tid)
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("frontend spans: %s: %s", fresp.Status, fbody)
	}
	var fsl api.SpanSlice
	if err := json.Unmarshal(fbody, &fsl); err != nil {
		t.Fatal(err)
	}
	if len(fsl.Spans) == 0 {
		t.Fatal("frontend recorded no spans for the propagated trace id")
	}

	// ...and so does the owning worker's, with the request id attached to
	// its request span (the cross-tier log-correlation contract).
	wresp, wbody := getBody(t, c.wTS[owner].URL+"/v1/spans?trace="+tid)
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("worker spans: %s: %s", wresp.Status, wbody)
	}
	var wsl api.SpanSlice
	if err := json.Unmarshal(wbody, &wsl); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range wsl.Spans {
		if sp.Name == "POST /v1/sim" && sp.Attrs.Get("request_id") == "req-edge-42" {
			found = true
		}
		if sp.ParentID == "" {
			t.Errorf("worker span %s (%s) rooted a fresh tree instead of continuing the frontend's", sp.SpanID, sp.Name)
		}
	}
	if !found {
		t.Error("worker request span does not carry the caller's request id")
	}
}

package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dvr/internal/faults"
	"dvr/internal/ledger"
	"dvr/internal/service/api"
	"dvr/internal/workloads"
)

// Exactly-once tests: the frontend job ledger, idempotency-key dedup,
// crash-point recovery, deadline propagation and straggler hedging. The
// closing invariant is the PR's acceptance bar — kill the frontend
// mid-batch, restart it over the same ledger, retry with the same
// idempotency key, and get bit-identical figures with zero re-executed
// cells.

// newFrontendOver builds a fresh frontend over c's workers: the
// "restarted process" in crash tests. It shares c's fault transport so
// partitions persist across the restart.
func newFrontendOver(t *testing.T, c *testCluster, tune func(*FrontendConfig)) (*Frontend, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(c.wTS))
	for i, ts := range c.wTS {
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
	ts := httptest.NewServer(fe.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = fe.Shutdown(ctx)
	})
	return fe, ts
}

// postBatchIdem submits a batch with an Idempotency-Key header and
// decodes the response envelope.
func postBatchIdem(t *testing.T, url, key string, req api.BatchRequest) (*http.Response, api.BatchResponse, []byte) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/batch", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(api.HeaderIdempotencyKey, key)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("batch submit: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var acc api.BatchResponse
	_ = json.Unmarshal(body, &acc)
	return resp, acc, body
}

// waitJobState polls a job until it leaves the running state.
func waitJobState(t *testing.T, base, jobID string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + jobID)
		if err == nil {
			var st api.JobStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err == nil && st.State != api.JobRunning {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", jobID)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFrontendCrashRecoveryExactlyOnce is the acceptance scenario: a
// frontend accepts an async batch into its ledger, dies mid-batch (after
// the workers own the sub-jobs), and a fresh frontend over the same
// ledger directory recovers the job under its original identity. The
// client's retry with the same idempotency key re-attaches instead of
// re-executing, the figures are bit-identical to a single-node run, and
// the fleet's cache-miss counters prove every cell simulated exactly
// once.
func TestFrontendCrashRecoveryExactlyOnce(t *testing.T) {
	req := api.BatchRequest{
		Workloads:  []workloads.Ref{loopRef(21_000), loopRef(31_000), loopRef(41_000)},
		Techniques: []string{"ooo", "dvr"},
		Async:      true,
	}
	want := runBaseline(t, api.BatchRequest{Workloads: req.Workloads, Techniques: req.Techniques})

	ledgerDir := t.TempDir()
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	winj := &faults.Injector{BeforeSim: func(string) { <-gate }}
	c := newTestCluster(t, 2, Config{Common: Common{Faults: winj}}, func(fc *FrontendConfig) {
		fc.LedgerDir = ledgerDir
	})

	const idem = "fig7-crash-recovery"
	resp, acc, body := postBatchIdem(t, c.feTS.URL, idem, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	if acc.Deduped {
		t.Fatal("first submission reported deduped")
	}
	jobID := acc.JobID

	// The accepted record is durable before the 202; wait for the workers
	// to own the sub-jobs so the kill is genuinely mid-batch.
	waitForFile(t, filepath.Join(ledgerDir, jobID+ledger.Ext))
	deadline := time.Now().Add(30 * time.Second)
	for {
		active := 0
		for _, w := range c.workers {
			a, _ := w.jobs.counts()
			active += a
		}
		if active >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("workers never received sub-jobs")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// kill -9 the frontend: root context cancelled, listener torn down.
	c.fe.Abort()
	c.feTS.CloseClientConnections()
	c.feTS.Close()

	// The workers keep running the sub-jobs they own; let them finish.
	release()
	deadline = time.Now().Add(60 * time.Second)
	for {
		active := 0
		for _, w := range c.workers {
			a, _ := w.jobs.counts()
			active += a
		}
		if active == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker sub-jobs never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Restart: a fresh frontend over the same ledger recovers the job.
	fe2, ts2 := newFrontendOver(t, c, func(fc *FrontendConfig) {
		fc.LedgerDir = ledgerDir
	})
	if got := len(fe2.LedgerHealth().Pending); got != 1 {
		t.Fatalf("ledger scan found %d pending jobs, want 1", got)
	}

	// The client retries the same submission: same key, same job, no
	// second execution.
	resp, acc, body = postBatchIdem(t, ts2.URL, idem, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %s: %s", resp.Status, body)
	}
	if !acc.Deduped {
		t.Error("resubmission was not deduplicated")
	}
	if acc.JobID != jobID {
		t.Errorf("resubmission job id = %s, want %s", acc.JobID, jobID)
	}

	st := waitJobState(t, ts2.URL, jobID)
	if st.State != api.JobDone || st.Batch == nil {
		t.Fatalf("recovered job ended %s: %s", st.State, st.Error)
	}
	got := canonical(t, st.Batch.Cells)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d differs from single-node run:\n got %s\nwant %s", i, got[i], want[i])
		}
	}

	// Zero duplicate executions: the fleet simulated each unique cell
	// exactly once, crash and recovery included. The sim gate drained every
	// in-flight cell before the abort, so here lookup-time misses agree with
	// committed completions; a real kill -9 cancels in-flight work mid-sim,
	// which inflates misses but never SimsCompleted — the resume smoke in CI
	// asserts on the latter.
	misses := c.workers[0].Metrics().CacheMisses + c.workers[1].Metrics().CacheMisses
	if misses != uint64(len(want)) {
		t.Errorf("fleet simulated %d cells, want exactly %d", misses, len(want))
	}
	completed := c.workers[0].Metrics().SimsCompleted + c.workers[1].Metrics().SimsCompleted
	if completed != uint64(len(want)) {
		t.Errorf("fleet committed %d simulations, want exactly %d", completed, len(want))
	}

	m := fe2.Metrics()
	if m.LedgerJobsRecovered != 1 {
		t.Errorf("LedgerJobsRecovered = %d, want 1", m.LedgerJobsRecovered)
	}
	if m.IdempotentHits < 1 {
		t.Errorf("IdempotentHits = %d, want >= 1", m.IdempotentHits)
	}
	if m.LedgerRecords < 2 { // recovered + done, at minimum
		t.Errorf("LedgerRecords = %d, want >= 2", m.LedgerRecords)
	}

	// The journal tells the whole story: accepted by the first frontend,
	// recovered and completed by the second.
	data, err := os.ReadFile(filepath.Join(ledgerDir, jobID+ledger.Ext))
	if err != nil {
		t.Fatal(err)
	}
	recs, torn, err := ledger.DecodeJournal(data)
	if err != nil || torn != 0 {
		t.Fatalf("journal decode: torn=%d err=%v", torn, err)
	}
	kinds := make([]string, len(recs))
	for i, r := range recs {
		kinds[i] = r.Kind
	}
	wantKinds := []string{ledger.KindAccepted, ledger.KindRecovered, ledger.KindDone}
	if fmt.Sprint(kinds) != fmt.Sprint(wantKinds) {
		t.Errorf("journal kinds = %v, want %v", kinds, wantKinds)
	}
	if recs[len(recs)-1].Error != "" {
		t.Errorf("done record carries error: %s", recs[len(recs)-1].Error)
	}
}

// TestFrontendCrashPointsBracketLedgerWrite pins both halves of the
// exactly-once argument with the fault injector's crash points: a death
// before the ledger write leaves nothing behind (the retry re-runs from
// scratch), a death after it leaves a pending journal a restarted
// frontend recovers — and the durable dedup window keeps answering
// retries of jobs that finished before the crash.
func TestFrontendCrashPointsBracketLedgerWrite(t *testing.T) {
	ledgerDir := t.TempDir()
	plan := &faults.CrashPlan{}
	c := newTestCluster(t, 1, Config{}, func(fc *FrontendConfig) {
		fc.LedgerDir = ledgerDir
		fc.Faults.Crash = plan
	})
	req := api.BatchRequest{
		Workloads:  []workloads.Ref{loopRef(22_000)},
		Techniques: []string{"ooo"},
		Async:      true,
	}

	// The crash POSTs must ride fresh connections: net/http transparently
	// replays a request bearing an Idempotency-Key header when a reused
	// keep-alive connection dies under it — exactly the client behavior the
	// key exists for, but here the test needs to observe the abort itself.
	abortingPost := func(key string, data []byte) error {
		t.Helper()
		hreq, _ := http.NewRequest(http.MethodPost, c.feTS.URL+"/v1/batch", strings.NewReader(string(data)))
		hreq.Header.Set(api.HeaderIdempotencyKey, key)
		cl := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
		defer cl.CloseIdleConnections()
		resp, err := cl.Do(hreq)
		if err == nil {
			resp.Body.Close()
			t.Fatalf("crash submission for %s answered %s, want aborted connection", key, resp.Status)
		}
		return err
	}

	// Crash before the ledger write: the job never existed.
	plan.Arm(faults.FrontendCrashBeforeLedgerWrite, 1)
	data, _ := json.Marshal(req)
	abortingPost("key-before", data)
	entries, err := os.ReadDir(ledgerDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ledger.Ext) {
			t.Fatalf("crash before ledger write left journal %s", e.Name())
		}
	}

	// The client's retry (crash point is one-shot) runs the job fresh.
	resp, acc, body := postBatchIdem(t, c.feTS.URL, "key-before", req)
	if resp.StatusCode != http.StatusAccepted || acc.Deduped {
		t.Fatalf("retry after crash-before: %s deduped=%v: %s", resp.Status, acc.Deduped, body)
	}
	doneA := waitJobState(t, c.feTS.URL, acc.JobID)
	if doneA.State != api.JobDone {
		t.Fatalf("job after crash-before ended %s: %s", doneA.State, doneA.Error)
	}

	// Crash after the ledger write: the journal survives with its
	// accepted record, and the job is recoverable.
	plan.Arm(faults.FrontendCrashAfterLedgerWrite, 1)
	abortingPost("key-after", data)
	var pendingID string
	entries, err = os.ReadDir(ledgerDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ledger.Ext) && strings.TrimSuffix(e.Name(), ledger.Ext) != doneA.ID {
			pendingID = strings.TrimSuffix(e.Name(), ledger.Ext)
		}
	}
	if pendingID == "" {
		t.Fatal("crash after ledger write left no journal")
	}

	// "Restart": a second frontend over the same ledger recovers the
	// orphaned job and keeps serving the finished one.
	fe2, ts2 := newFrontendOver(t, c, func(fc *FrontendConfig) {
		fc.LedgerDir = ledgerDir
	})
	lh := fe2.LedgerHealth()
	if len(lh.Pending) != 1 || lh.Pending[0].ID != pendingID {
		t.Fatalf("ledger scan pending = %+v, want [%s]", lh.Pending, pendingID)
	}
	if len(lh.Completed) != 1 || lh.Completed[0].ID != doneA.ID {
		t.Fatalf("ledger scan completed = %+v, want [%s]", lh.Completed, doneA.ID)
	}
	stB := waitJobState(t, ts2.URL, pendingID)
	if stB.State != api.JobDone {
		t.Fatalf("recovered job ended %s: %s", stB.State, stB.Error)
	}

	// Retries of both keys dedup against the restarted frontend.
	resp, acc, body = postBatchIdem(t, ts2.URL, "key-after", req)
	if resp.StatusCode != http.StatusAccepted || !acc.Deduped || acc.JobID != pendingID {
		t.Errorf("key-after retry: %s deduped=%v job=%s (want %s): %s", resp.Status, acc.Deduped, acc.JobID, pendingID, body)
	}
	resp, acc, body = postBatchIdem(t, ts2.URL, "key-before", req)
	if resp.StatusCode != http.StatusAccepted || !acc.Deduped || acc.JobID != doneA.ID {
		t.Errorf("key-before retry: %s deduped=%v job=%s (want %s): %s", resp.Status, acc.Deduped, acc.JobID, doneA.ID, body)
	}
}

// TestRecoveredSampledJobSettlesFailed: a pending journal whose accepted
// request asks for sampling, as older builds accepted and journalled them,
// settles failed when the frontend boots, with the refusal as the job's
// error. Nothing is dispatched: the request never runs as an exact job.
func TestRecoveredSampledJobSettlesFailed(t *testing.T) {
	ledgerDir := t.TempDir()
	led, err := ledger.NewStore(ledgerDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	const id = "job-7"
	req := &api.BatchRequest{
		Workloads:  []workloads.Ref{loopRef(1000)},
		Techniques: []string{"ooo", "dvr"},
		Sampling:   json.RawMessage(`{"max_phases":4}`),
		Async:      true,
	}
	if err := led.Append(id, ledger.Record{Kind: ledger.KindAccepted, JobID: id, Key: "sampled-key", Total: 2, Request: req}); err != nil {
		t.Fatal(err)
	}
	c := newTestCluster(t, 1, Config{}, func(fc *FrontendConfig) { fc.LedgerDir = ledgerDir })
	if lh := c.fe.LedgerHealth(); len(lh.Pending) != 1 || lh.Pending[0].ID != id {
		t.Fatalf("ledger scan pending = %+v, want [%s]", lh.Pending, id)
	}
	st := waitJobState(t, c.feTS.URL, id)
	if st.State != api.JobError || !strings.Contains(st.Error, "dvrbench -sampled") {
		t.Errorf("recovered sampled job ended %s (%q), want %s naming dvrbench -sampled", st.State, st.Error, api.JobError)
	}
	if m := c.fe.Metrics(); m.RoutedTotal != 0 || m.LedgerJobsRecovered != 0 {
		t.Errorf("frontend routed %d cells and recovered %d jobs, want none", m.RoutedTotal, m.LedgerJobsRecovered)
	}
	if m := c.workers[0].Metrics(); m.CacheMisses != 0 || m.SimsCompleted != 0 {
		t.Errorf("worker saw %d misses and ran %d sims, want none", m.CacheMisses, m.SimsCompleted)
	}
	// The settlement is durable: a second boot finds the job completed.
	_, ts2 := newFrontendOver(t, c, func(fc *FrontendConfig) { fc.LedgerDir = ledgerDir })
	if st := waitJobState(t, ts2.URL, id); st.State != api.JobError {
		t.Errorf("after a second boot the job is %s, want %s", st.State, api.JobError)
	}
}

// TestIdempotencyKeyRace: racing duplicate submissions with one key admit
// exactly one job, on the worker and through the frontend. Run with
// -race, this also proves the admission path is data-race free.
func TestIdempotencyKeyRace(t *testing.T) {
	req := api.BatchRequest{
		Workloads:  []workloads.Ref{loopRef(23_000)},
		Techniques: []string{"ooo"},
		Async:      true,
	}
	run := func(t *testing.T, base string, misses func() uint64) {
		const n = 16
		var (
			wg      sync.WaitGroup
			mu      sync.Mutex
			ids     = make(map[string]int)
			created int
		)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, acc, body := postBatchIdem(t, base, "race-key", req)
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("racing submit: %s: %s", resp.Status, body)
					return
				}
				mu.Lock()
				ids[acc.JobID]++
				if !acc.Deduped {
					created++
				}
				mu.Unlock()
			}()
		}
		wg.Wait()
		if len(ids) != 1 {
			t.Fatalf("racing submissions created %d distinct jobs: %v", len(ids), ids)
		}
		if created != 1 {
			t.Errorf("%d submissions reported created (deduped=false), want exactly 1", created)
		}
		for id := range ids {
			if st := waitJobState(t, base, id); st.State != api.JobDone {
				t.Fatalf("job ended %s: %s", st.State, st.Error)
			}
		}
		if got := misses(); got != 1 {
			t.Errorf("fleet simulated the cell %d times, want exactly 1", got)
		}
	}
	t.Run("worker", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{})
		run(t, ts.URL, func() uint64 { return srv.Metrics().CacheMisses })
	})
	t.Run("frontend", func(t *testing.T) {
		ledgerDir := t.TempDir()
		c := newTestCluster(t, 2, Config{}, func(fc *FrontendConfig) {
			fc.LedgerDir = ledgerDir
		})
		run(t, c.feTS.URL, func() uint64 {
			return c.workers[0].Metrics().CacheMisses + c.workers[1].Metrics().CacheMisses
		})
		// Exactly one journal: the race admitted one durable job.
		entries, err := os.ReadDir(ledgerDir)
		if err != nil {
			t.Fatal(err)
		}
		jobs := 0
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ledger.Ext) {
				jobs++
			}
		}
		if jobs != 1 {
			t.Errorf("ledger holds %d job journals, want 1", jobs)
		}
	})
}

// TestIdempotencyKeyConflictRejected: reusing a key for a different batch
// is a loud 400, not silent service of unrelated results, on both roles.
func TestIdempotencyKeyConflictRejected(t *testing.T) {
	check := func(t *testing.T, base string) {
		one := api.BatchRequest{Workloads: []workloads.Ref{loopRef(24_000)}, Techniques: []string{"ooo"}, Async: true}
		resp, acc, body := postBatchIdem(t, base, "conflict-key", one)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("first submit: %s: %s", resp.Status, body)
		}
		two := api.BatchRequest{Workloads: []workloads.Ref{loopRef(24_000)}, Techniques: []string{"ooo", "dvr"}, Async: true}
		resp, _, body = postBatchIdem(t, base, "conflict-key", two)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("conflicting reuse: %s (want 400): %s", resp.Status, body)
		}
		var apiErr api.Error
		if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.Code != api.CodeBadRequest {
			t.Errorf("conflict error = %+v (err %v), want code %s", apiErr, err, api.CodeBadRequest)
		}
		waitJobState(t, base, acc.JobID)
	}
	t.Run("worker", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		check(t, ts.URL)
	})
	t.Run("frontend", func(t *testing.T) {
		c := newTestCluster(t, 1, Config{}, nil)
		check(t, c.feTS.URL)
	})
}

// TestSyncIdempotentDuplicateServesOriginal: a synchronous resubmission
// of a key owned by an async job waits for that job and serves its
// outcome, flagged deduped, on both roles.
func TestSyncIdempotentDuplicateServesOriginal(t *testing.T) {
	check := func(t *testing.T, base string, misses func() uint64) {
		req := api.BatchRequest{Workloads: []workloads.Ref{loopRef(25_000)}, Techniques: []string{"ooo"}, Async: true}
		resp, acc, body := postBatchIdem(t, base, "sync-dup", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async submit: %s: %s", resp.Status, body)
		}
		sync := req
		sync.Async = false
		resp, got, body := postBatchIdem(t, base, "sync-dup", sync)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sync duplicate: %s: %s", resp.Status, body)
		}
		if !got.Deduped || got.JobID != acc.JobID {
			t.Errorf("sync duplicate deduped=%v job=%s, want deduped against %s", got.Deduped, got.JobID, acc.JobID)
		}
		if len(got.Cells) != 1 || got.Cells[0].Error != nil {
			t.Fatalf("sync duplicate cells = %+v", got.Cells)
		}
		if n := misses(); n != 1 {
			t.Errorf("cell simulated %d times, want 1", n)
		}
	}
	t.Run("worker", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{})
		check(t, ts.URL, func() uint64 { return srv.Metrics().CacheMisses })
	})
	t.Run("frontend", func(t *testing.T) {
		c := newTestCluster(t, 1, Config{}, nil)
		check(t, c.feTS.URL, func() uint64 { return c.workers[0].Metrics().CacheMisses })
	})
}

// TestDeadlineBudgetRejectsDoomed: a request whose propagated deadline
// budget is already spent is refused with 504 up front, on both roles,
// and counted; a malformed budget header is ignored.
func TestDeadlineBudgetRejectsDoomed(t *testing.T) {
	check := func(t *testing.T, base string, rejected func() uint64) {
		data, _ := json.Marshal(api.SimRequest{Workload: loopRef(26_000), Technique: "ooo"})
		hreq, _ := http.NewRequest(http.MethodPost, base+"/v1/sim", strings.NewReader(string(data)))
		hreq.Header.Set(api.HeaderDeadlineMS, "0")
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(resp)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("doomed request: %s (want 504): %s", resp.Status, body)
		}
		var apiErr api.Error
		if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.Code != api.CodeTimeout {
			t.Errorf("doomed request error = %+v (err %v), want code %s", apiErr, err, api.CodeTimeout)
		}
		if got := rejected(); got != 1 {
			t.Errorf("deadline_rejected = %d, want 1", got)
		}
		// Malformed header: ignored, the request runs.
		hreq, _ = http.NewRequest(http.MethodPost, base+"/v1/sim", strings.NewReader(string(data)))
		hreq.Header.Set(api.HeaderDeadlineMS, "soon")
		resp, err = http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		body, _ = readAll(resp)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("malformed budget: %s (want 200): %s", resp.Status, body)
		}
	}
	t.Run("worker", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{})
		check(t, ts.URL, func() uint64 { return srv.Metrics().DeadlineRejected })
	})
	t.Run("frontend", func(t *testing.T) {
		c := newTestCluster(t, 1, Config{}, nil)
		check(t, c.feTS.URL, func() uint64 { return c.fe.Metrics().DeadlineRejected })
	})
}

// TestHedgedDispatchRescuesStraggler: with the owning replica stalled at
// the transport, the hedge timer launches a backup dispatch on the other
// replica and the request succeeds in hedge time, not stall time. The
// winner is journaled to the side ledger.
func TestHedgedDispatchRescuesStraggler(t *testing.T) {
	ledgerDir := t.TempDir()
	c := newTestCluster(t, 2, Config{}, func(fc *FrontendConfig) {
		fc.LedgerDir = ledgerDir
		fc.HedgeAfter = 25 * time.Millisecond
	})
	ref, tech := loopRef(27_000), "ooo"
	key := keyFor(t, ref, tech)
	owner := c.ownerOf(t, key)
	host := strings.TrimPrefix(c.wTS[owner].URL, "http://")
	c.nf.Stall(host, 5*time.Second)
	t.Cleanup(func() { c.nf.Unstall(host) })

	start := time.Now()
	resp, body := postJSON(t, c.feTS.URL+"/v1/sim", api.SimRequest{Workload: ref, Technique: tech})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged sim: %s: %s", resp.Status, body)
	}
	if elapsed := time.Since(start); elapsed >= 5*time.Second {
		t.Errorf("hedged sim took %v — waited out the stall instead of hedging", elapsed)
	}
	var sim api.SimResponse
	if err := json.Unmarshal(body, &sim); err != nil {
		t.Fatal(err)
	}
	if sim.Result.Instructions == 0 {
		t.Error("hedged sim returned empty result")
	}

	m := c.fe.Metrics()
	if m.HedgesLaunched < 1 {
		t.Errorf("HedgesLaunched = %d, want >= 1", m.HedgesLaunched)
	}
	if m.HedgesWon < 1 {
		t.Errorf("HedgesWon = %d, want >= 1", m.HedgesWon)
	}

	data, err := os.ReadFile(filepath.Join(ledgerDir, "hedges"+ledger.SideExt))
	if err != nil {
		t.Fatalf("hedge side journal: %v", err)
	}
	recs, torn, err := ledger.DecodeJournal(data)
	if err != nil || torn != 0 || len(recs) == 0 {
		t.Fatalf("hedge journal decode: %d recs, torn=%d, err=%v", len(recs), torn, err)
	}
	rec := recs[len(recs)-1]
	if rec.Kind != ledger.KindHedge || rec.CellKey != key {
		t.Errorf("hedge record = %+v, want kind %s for %s", rec, ledger.KindHedge, key)
	}
	if rec.Winner != c.wTS[1-owner].URL || rec.Loser != c.wTS[owner].URL {
		t.Errorf("hedge winner/loser = %s/%s, want %s/%s", rec.Winner, rec.Loser, c.wTS[1-owner].URL, c.wTS[owner].URL)
	}
}

// readAll drains a response body and closes it.
func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

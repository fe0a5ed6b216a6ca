package service

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/faults"
	"dvr/internal/service/api"
	"dvr/internal/workloads"
)

// runUninterrupted produces the reference result for a cell the durable
// tests interrupt: the canonical output of a run that was never touched.
func runUninterrupted(t *testing.T, ref workloads.Ref, tech string, cfg cpu.Config) cpu.Result {
	t.Helper()
	spec, err := workloads.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.Run(context.Background(), experiments.Job{Spec: spec, Tech: experiments.Technique(tech), Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return res.Canonical()
}

func shutdown(t testing.TB, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServerResumesInterruptedJobAcrossRestart is the service half of the
// durability contract: a dvrd killed mid-simulation leaves a checkpoint
// journal behind, and the next dvrd over the same cache directory resumes
// the job at startup and completes it bit-identically to a run that was
// never interrupted.
func TestServerResumesInterruptedJobAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ref := graphRef(200_000)
	cfg := cpu.DefaultConfig()
	const tech = "dvr"
	expected := runUninterrupted(t, ref, tech, cfg)

	spec, err := workloads.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey(spec.Ref, tech, cfg)
	ckptPath := filepath.Join(dir, "checkpoints", key+".ckpt")

	// First life: start the job, wait for a checkpoint to hit disk, then
	// cut the run off (the moral equivalent of SIGKILL for the worker —
	// the checkpoint file is all the next process gets).
	srv1 := New(Config{CacheDir: dir, CheckpointEvery: 2_000, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := runRef(ctx, srv1, ref, tech, cfg)
		done <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	for srv1.ckpts.Written() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint written before deadline")
		}
		time.Sleep(200 * time.Microsecond)
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("interrupted run reported success; cannot test resume")
	}
	shutdown(t, srv1)
	if _, err := os.Stat(ckptPath); err != nil {
		t.Fatalf("no checkpoint journal survived the first life: %v", err)
	}

	// Second life: the startup scan finds the journal and resumes the job
	// in the background; Shutdown waits for it to land in the cache.
	srv2 := New(Config{CacheDir: dir, CheckpointEvery: 2_000, Workers: 2})
	if got := len(srv2.CheckpointHealth().Pending); got != 1 {
		t.Fatalf("startup scan found %d pending jobs, want 1", got)
	}
	shutdown(t, srv2)
	if srv2.ckpts.Resumed() == 0 {
		t.Error("interrupted job was not resumed from its checkpoint")
	}
	got, ok := srv2.cache.Peek(key)
	if !ok {
		t.Fatal("resumed job's result did not land in the cache")
	}
	if got != expected {
		t.Errorf("resumed result differs from uninterrupted run:\n got %+v\nwant %+v", got, expected)
	}
	if _, err := os.Stat(ckptPath); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("checkpoint not cleaned up after completion: %v", err)
	}

	// Third life: nothing pending, and the finished result is served from
	// the surviving spill without re-simulating.
	srv3 := New(Config{CacheDir: dir, CheckpointEvery: 2_000, Workers: 2})
	if got := len(srv3.CheckpointHealth().Pending); got != 0 {
		t.Errorf("third startup scan found %d pending jobs, want 0", got)
	}
	res, err := runRef(context.Background(), srv3, ref, tech, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("completed job re-simulated instead of served from cache")
	}
	if res.Result != expected {
		t.Errorf("cached result differs from uninterrupted run:\n got %+v\nwant %+v", res.Result, expected)
	}
	shutdown(t, srv3)
}

// TestWatchdogTripsAndPoolStaysHealthy seeds a scripted livelock for one
// job key and verifies the full failure path: the request answers 500
// with a typed internal error, a forensics dump lands on disk, the
// metrics count the trip, the wedged job's checkpoint is dropped (the
// wedge is deterministic; resuming would only re-trip), and the worker
// pool keeps serving other jobs.
func TestWatchdogTripsAndPoolStaysHealthy(t *testing.T) {
	dir := t.TempDir()
	ref := graphRef(30_000)
	cfg := cpu.DefaultConfig()
	spec, err := workloads.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	badKey := CacheKey(spec.Ref, "dvr", cfg)

	srv, ts := newTestServer(t, Config{
		CacheDir:        dir,
		CheckpointEvery: 4_000,
		WatchdogCycles:  50_000,
		Common: Common{Faults: &faults.Injector{SimLivelock: func(key string) uint64 {
			if key == badKey {
				return 2_000
			}
			return 0
		}}},
	})

	resp, body := postJSON(t, ts.URL+"/v1/sim", api.SimRequest{Workload: ref, Technique: "dvr"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("livelocked sim: %s: %s", resp.Status, body)
	}
	var apiErr api.Error
	if err := json.Unmarshal(body, &apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Code != api.CodeInternal {
		t.Errorf("error code = %q, want %q", apiErr.Code, api.CodeInternal)
	}
	if !strings.Contains(apiErr.Error, "livelock") {
		t.Errorf("error %q does not name the livelock", apiErr.Error)
	}

	// The forensics dump is on disk, keyed by the wedged job, and decodes
	// back into the typed error with a populated pipeline dump.
	fdata, err := os.ReadFile(filepath.Join(dir, "forensics", badKey+".json"))
	if err != nil {
		t.Fatalf("no forensics dump: %v", err)
	}
	var le cpu.LivelockError
	if err := json.Unmarshal(fdata, &le); err != nil {
		t.Fatalf("forensics dump does not decode: %v", err)
	}
	if le.Budget != 50_000 {
		t.Errorf("forensics budget = %d, want 50000", le.Budget)
	}
	if le.Dump.Seq < 2_000 {
		t.Errorf("forensics seq = %d, want >= livelock point 2000", le.Dump.Seq)
	}
	if len(le.Dump.LastPCs) == 0 {
		t.Error("forensics dump has no trailing committed PCs")
	}

	if got := srv.watchdogTrips.Load(); got != 1 {
		t.Errorf("watchdog trips = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoints", badKey+".ckpt")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("wedged job's checkpoint not dropped: %v", err)
	}

	// The wire metrics carry the trip.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m api.Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if m.WatchdogTrips != 1 {
		t.Errorf("metrics watchdog_trips = %d, want 1", m.WatchdogTrips)
	}

	// The pool survived: an un-faulted job on the same server completes.
	resp, body = postJSON(t, ts.URL+"/v1/sim", api.SimRequest{Workload: ref, Technique: "ooo"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean sim after watchdog trip: %s: %s", resp.Status, body)
	}

	// A livelocked cell inside a batch fails in isolation, like a panic:
	// the other cells complete and the batch reports one failure.
	var batch api.BatchResponse
	resp, body = postJSON(t, ts.URL+"/v1/batch", api.BatchRequest{
		Workloads:  []workloads.Ref{ref},
		Techniques: []string{"dvr", "vr"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with livelocked cell: %s: %s", resp.Status, body)
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Failed != 1 {
		t.Errorf("batch failed cells = %d, want 1", batch.Failed)
	}
	var clean, wedged *api.SimResponse
	for i := range batch.Cells {
		if batch.Cells[i].Error != nil {
			wedged = &batch.Cells[i]
		} else {
			clean = &batch.Cells[i]
		}
	}
	if wedged == nil || !strings.Contains(wedged.Error.Error, "livelock") {
		t.Errorf("batch did not isolate the livelocked cell: %+v", batch.Cells)
	}
	if clean == nil {
		t.Errorf("batch lost its healthy cell: %+v", batch.Cells)
	}
}

// TestCorruptCheckpointQuarantinedAcrossRestarts is the checkpoint half of
// the quarantine contract (the spill half lives in fault_test.go): a
// corrupt checkpoint is moved aside at the startup scan, never resumed
// from, stays quarantined across further restarts, and the job it named
// simply runs from scratch.
func TestCorruptCheckpointQuarantinedAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	ref := graphRef(8_000)
	cfg := cpu.DefaultConfig()
	spec, err := workloads.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey(spec.Ref, "dvr", cfg)
	ckdir := filepath.Join(dir, "checkpoints")
	if err := os.MkdirAll(ckdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ckdir, key+".ckpt"), []byte("fell off a truck"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv1 := New(Config{CacheDir: dir, CheckpointEvery: 2_000, Workers: 2})
	h := srv1.CheckpointHealth()
	if h.Scanned != 1 || h.Quarantined != 1 || len(h.Pending) != 0 {
		t.Fatalf("startup scan = %+v, want 1 scanned, 1 quarantined, 0 pending", h)
	}
	if m := srv1.Metrics(); m.CheckpointsQuarantined != 1 {
		t.Errorf("metrics checkpoints_quarantined = %d, want 1", m.CheckpointsQuarantined)
	}
	if _, err := os.Stat(filepath.Join(ckdir, "quarantine", key+".ckpt")); err != nil {
		t.Errorf("corrupt checkpoint not in quarantine: %v", err)
	}
	if _, err := os.Stat(filepath.Join(ckdir, key+".ckpt")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("corrupt checkpoint still in the live directory: %v", err)
	}

	// The named job is untainted: it simulates from scratch, with no
	// resume from the quarantined bytes.
	res, err := runRef(context.Background(), srv1, ref, "dvr", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv1.ckpts.Resumed() != 0 {
		t.Error("job resumed from a quarantined checkpoint")
	}
	if want := runUninterrupted(t, ref, "dvr", cfg); res.Result != want {
		t.Errorf("post-quarantine result differs from clean run:\n got %+v\nwant %+v", res.Result, want)
	}
	shutdown(t, srv1)

	// Across another restart the file stays quarantined: the scan sees a
	// clean directory and never re-serves the quarantined bytes.
	srv2 := New(Config{CacheDir: dir, CheckpointEvery: 2_000, Workers: 2})
	h2 := srv2.CheckpointHealth()
	if h2.Scanned != 0 || h2.Quarantined != 0 {
		t.Errorf("restart scan = %+v, want empty", h2)
	}
	if _, err := os.Stat(filepath.Join(ckdir, "quarantine", key+".ckpt")); err != nil {
		t.Errorf("quarantined checkpoint vanished across restart: %v", err)
	}
	shutdown(t, srv2)
}

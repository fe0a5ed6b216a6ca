package service

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dvr/internal/checkpoint"
	"dvr/internal/cpu"
	"dvr/internal/faults"
	"dvr/internal/ledger"
	"dvr/internal/sealed"
	"dvr/internal/service/api"
	"dvr/internal/trace"
	"dvr/internal/workloads"
)

// recordingFS notes every read, write and rename that reaches the disk, so
// a test can tell which path an artifact took.
type recordingFS struct {
	faults.FS
	mu      sync.Mutex
	reads   map[string]int
	writes  []string
	renames [][2]string
}

func newRecordingFS() *recordingFS {
	return &recordingFS{FS: faults.OS(), reads: make(map[string]int)}
}

func (r *recordingFS) ReadFile(name string) ([]byte, error) {
	r.mu.Lock()
	r.reads[name]++
	r.mu.Unlock()
	return r.FS.ReadFile(name)
}

func (r *recordingFS) WriteTemp(dir, pattern string, data []byte) (string, error) {
	name, err := r.FS.WriteTemp(dir, pattern, data)
	if err == nil {
		r.mu.Lock()
		r.writes = append(r.writes, name)
		r.mu.Unlock()
	}
	return name, err
}

func (r *recordingFS) Rename(oldpath, newpath string) error {
	r.mu.Lock()
	r.renames = append(r.renames, [2]string{oldpath, newpath})
	r.mu.Unlock()
	return r.FS.Rename(oldpath, newpath)
}

// TestStaleSchemaSpillRemovedAsSkew: an intact spill entry from another
// result schema can never be served by this build. It is dropped — at the
// boot scan or on the read that finds it — instead of staying on disk to
// be read, hashed and refused again on every lookup of its key.
func TestStaleSchemaSpillRemovedAsSkew(t *testing.T) {
	dir := t.TempDir()
	stale, err := json.Marshal(cpu.Result{SchemaVersion: cpu.ResultSchemaVersion + 1, Instructions: 1})
	if err != nil {
		t.Fatal(err)
	}
	bootKey, readKey := strings.Repeat("a", 64), strings.Repeat("b", 64)
	bootPath, readPath := filepath.Join(dir, bootKey+".json"), filepath.Join(dir, readKey+".json")
	if err := os.WriteFile(bootPath, sealed.Seal(stale), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := New(Config{CacheDir: dir})
	defer shutdown(t, srv)
	if h, want := srv.SpillHealth(), (sealed.Health{Scanned: 1, Dropped: 1}); h != want {
		t.Errorf("spill scan = %+v, want %+v", h, want)
	}
	if err := os.WriteFile(readPath, sealed.Seal(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.cache.Get(readKey); ok {
		t.Error("stale-schema spill entry was served")
	}
	for _, p := range []string{bootPath, readPath} {
		if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("stale-schema entry %s still on disk: %v", filepath.Base(p), err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("skew was quarantined as if it were corruption: %v", err)
	}
	if got := srv.Metrics().SpillQuarantined; got != 0 {
		t.Errorf("spill_quarantined = %d, want 0", got)
	}
}

// TestTraceSpillSealed: interval-trace spills carry the same digest footer
// as every other artifact. A bit flip that still parses as JSON — or a
// file from before traces were sealed — is a quarantined miss, never a
// silently different series.
func TestTraceSpillSealed(t *testing.T) {
	dir := t.TempDir()
	ref := loopRef(3_700)
	cfg := Config{CacheDir: dir, TraceIntervalEvery: 500}
	srv1 := New(cfg)
	resp, err := runRef(context.Background(), srv1, ref, "ooo", cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, ok := srv1.traces.Get(resp.Key)
	if !ok || len(want) == 0 {
		t.Fatal("no interval series stored for the cell")
	}
	shutdown(t, srv1)

	path := filepath.Join(dir, "traces", resp.Key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := sealed.Unseal(data)
	if err != nil {
		t.Fatalf("trace spill is not sealed: %v", err)
	}
	var onDisk []trace.Interval
	if err := json.Unmarshal(payload, &onDisk); err != nil || len(onDisk) != len(want) {
		t.Fatalf("trace spill payload: %d intervals, err %v; want %d", len(onDisk), err, len(want))
	}

	// An intact spill survives the restart.
	srv2 := New(cfg)
	if got, ok := srv2.traces.Get(resp.Key); !ok || len(got) != len(want) {
		t.Errorf("intact trace spill not served after restart (ok=%v, %d intervals)", ok, len(got))
	}
	shutdown(t, srv2)

	// A digit flipped inside the payload ('2'<->'3', ...) is still valid
	// JSON for the same type: only the seal can tell.
	flipped := append([]byte(nil), data...)
	flipped[strings.IndexAny(string(payload), "23456789")] ^= 1
	if err := json.Unmarshal(flipped[:len(payload)], new([]trace.Interval)); err != nil {
		t.Fatalf("flipped series no longer parses, the test is not exercising the seal: %v", err)
	}
	for name, damaged := range map[string][]byte{
		"digit flip that still parses":      flipped,
		"unsealed file from an older build": payload,
	} {
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		srv := New(cfg)
		if _, ok := srv.traces.Get(resp.Key); ok {
			t.Errorf("%s: damaged trace spill was served", name)
		}
		if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: damaged trace spill still in place: %v", name, err)
		}
		qpath := filepath.Join(dir, "traces", "quarantine", resp.Key+".json")
		if _, err := os.Stat(qpath); err != nil {
			t.Errorf("%s: damaged trace spill not quarantined: %v", name, err)
		}
		shutdown(t, srv)
		_ = os.Remove(qpath)
	}
}

// TestResumeDecodesEachCheckpointOnce: the boot scan already read, hashed
// and decoded every pending checkpoint; resumePending consumes those
// states. Each journal is read once by the scan and once by the resumed
// run itself, not a third time in between.
func TestResumeDecodesEachCheckpointOnce(t *testing.T) {
	dir := t.TempDir()
	ref := graphRef(200_000)
	cfg := cpu.DefaultConfig()
	spec, err := workloads.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey(spec.Ref, "dvr", cfg)
	ckptPath := filepath.Join(dir, "checkpoints", key+".ckpt")

	srv1 := New(Config{CacheDir: dir, CheckpointEvery: 2_000, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := runRef(ctx, srv1, ref, "dvr", cfg)
		done <- err
	}()
	for deadline := time.Now().Add(30 * time.Second); srv1.ckpts.Written() == 0; {
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

	rec := newRecordingFS()
	srv2 := New(Config{CacheDir: dir, CheckpointEvery: 2_000, Workers: 2, Common: Common{Faults: &faults.Injector{FS: rec}}})
	if got := srv2.CheckpointHealth(); len(got.Pending) != 1 || got.States != nil {
		t.Fatalf("startup scan = %d pending, states retained = %v; want 1 pending, states released", len(got.Pending), got.States != nil)
	}
	shutdown(t, srv2)
	if srv2.ckpts.Resumed() != 1 {
		t.Errorf("checkpoints resumed = %d, want 1", srv2.ckpts.Resumed())
	}
	if got, ok := srv2.cache.Peek(key); !ok || got != runUninterrupted(t, ref, "dvr", cfg) {
		t.Errorf("resumed result missing or different from an uninterrupted run (ok=%v)", ok)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if got := rec.reads[ckptPath]; got != 2 {
		t.Errorf("checkpoint read %d times across boot and resume, want 2 (scan + the run's own load)", got)
	}
}

// TestForensicsPublishedAtomically: the livelock pipeline dump and the
// sealed flight record both reach the disk through the injected
// filesystem — so the chaos suite's disk faults apply to them — and both
// are written under a tmp name and renamed, never straight to the final
// name.
func TestForensicsPublishedAtomically(t *testing.T) {
	dir := t.TempDir()
	ref := graphRef(30_000)
	cfg := cpu.DefaultConfig()
	spec, err := workloads.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	badKey := CacheKey(spec.Ref, "dvr", cfg)
	rec := newRecordingFS()
	srv := New(Config{
		CacheDir:       dir,
		WatchdogCycles: 50_000,
		Common: Common{TraceSpans: 64, Faults: &faults.Injector{FS: rec, SimLivelock: func(key string) uint64 {
			if key == badKey {
				return 2_000
			}
			return 0
		}}},
	})
	defer shutdown(t, srv)
	var le *cpu.LivelockError
	if _, err := runRef(context.Background(), srv, ref, "dvr", cfg); !errors.As(err, &le) {
		t.Fatalf("runCell = %v, want a livelock", err)
	}

	fdir := filepath.Join(dir, "forensics")
	entries, err := os.ReadDir(fdir)
	if err != nil {
		t.Fatal(err)
	}
	var flight string
	for _, e := range entries {
		switch name := e.Name(); {
		case name == badKey+".json":
		case strings.HasPrefix(name, "flight-livelock-") && strings.HasSuffix(name, ".json"):
			flight = filepath.Join(fdir, name)
		default:
			t.Errorf("unexpected file left in forensics/: %s", name)
		}
	}
	if data, err := os.ReadFile(filepath.Join(fdir, badKey+".json")); err != nil {
		t.Errorf("no livelock dump: %v", err)
	} else if err := json.Unmarshal(data, new(cpu.LivelockError)); err != nil {
		t.Errorf("livelock dump is not plain JSON: %v", err)
	}
	if data, err := os.ReadFile(flight); err != nil {
		t.Errorf("no flight record: %v", err)
	} else if _, err := sealed.Unseal(data); err != nil {
		t.Errorf("flight record is not sealed: %v", err)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	published := map[string]bool{}
	for _, w := range rec.writes {
		if filepath.Dir(w) == fdir && !strings.HasSuffix(w, ".tmp") {
			t.Errorf("forensics file written straight to its final name: %s", filepath.Base(w))
		}
	}
	for _, r := range rec.renames {
		if filepath.Dir(r[0]) == fdir && strings.HasSuffix(r[0], ".tmp") {
			published[r[1]] = true
		}
	}
	for _, want := range []string{filepath.Join(fdir, badKey+".json"), flight} {
		if !published[want] {
			t.Errorf("%s was not published by tmp+rename through the injected filesystem", filepath.Base(want))
		}
	}
}

// TestFlightDumpObeysDiskFaults: a flight record that cannot be written
// reports "" and leaves nothing behind.
func TestFlightDumpObeysDiskFaults(t *testing.T) {
	dir := t.TempDir()
	ffs := faults.NewFaultyFS(nil, 1)
	ffs.FailWriteEvery = 1
	srv := New(Config{CacheDir: dir, Common: Common{TraceSpans: 16, Faults: &faults.Injector{FS: ffs}}})
	defer shutdown(t, srv)
	if path := srv.DumpFlight("test"); path != "" {
		t.Errorf("DumpFlight over a failing disk = %q, want \"\"", path)
	}
	if entries, _ := os.ReadDir(filepath.Join(dir, "forensics")); len(entries) != 0 {
		t.Errorf("failed flight dump left %d file(s) behind", len(entries))
	}
}

// TestParentArtifactsLoad: files written by the commit before the stores
// moved behind internal/sealed (testdata/parent: a checkpoint, a journal
// with a torn tail, a result spill) load under this build, through the
// same public entry points, with the same repairs.
func TestParentArtifactsLoad(t *testing.T) {
	dir := t.TempDir()
	entries, err := os.ReadDir(filepath.Join("testdata", "parent"))
	if err != nil {
		t.Fatal(err)
	}
	var spillKey string
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join("testdata", "parent", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if k, ok := strings.CutSuffix(e.Name(), ".json"); ok {
			spillKey = k
		}
	}

	ckpts, err := checkpoint.NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h := ckpts.Scan(); h.Scanned != 1 || h.Healthy != 1 || len(h.Pending) != 1 || h.Pending[0] != "cell" {
		t.Errorf("checkpoint scan = %+v, want one healthy journal named cell", h.Health)
	}
	st, err := ckpts.Load("cell")
	if err != nil {
		t.Fatalf("parent checkpoint: %v", err)
	}
	// The fixture tests the container, so it pins the engine it was written
	// under; a journal of another engine must decode and then be refused.
	if err := st.Matches("dvr-engine/3", st.Ref, "ooo", st.Config); err != nil || st.Seq() == 0 {
		t.Errorf("parent checkpoint decoded to seq %d, match %v", st.Seq(), err)
	}
	if err := st.Matches(api.EngineVersion, st.Ref, "ooo", st.Config); err == nil {
		t.Errorf("parent checkpoint (engine %s) matches the current engine %s", st.Engine, api.EngineVersion)
	}

	led, err := ledger.NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := led.Scan()
	if h.Scanned != 1 || h.Healthy != 1 || h.Torn != 1 || len(h.Pending) != 1 || len(h.Completed) != 0 {
		t.Fatalf("ledger scan = %+v, want one healthy pending journal with a repaired tail", h)
	}
	if job := h.Pending[0]; job.ID != "job-torn" || job.Accepted.Key != "idem-1" || job.Accepted.Request == nil {
		t.Errorf("recovered job = %+v, want job-torn with its accepted record", job)
	}
	if recs, err := led.Load("job-torn"); err != nil || len(recs) != 1 || led.TornRepaired() != 1 {
		t.Errorf("reload after repair: %d records, err %v, %d repairs; want 1, nil, 1", len(recs), err, led.TornRepaired())
	}

	cache := newResultCache(4, dir, nil)
	if want := (sealed.Health{Scanned: 1, Healthy: 1}); cache.health != want {
		t.Errorf("spill scan = %+v, want %+v", cache.health, want)
	}
	res, ok := cache.Get(spillKey)
	if !ok || res.Instructions == 0 || res.SchemaVersion != cpu.ResultSchemaVersion {
		t.Errorf("parent spill entry: ok=%v result=%+v", ok, res)
	}
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvr/internal/cpu"
	"dvr/internal/faults"
	"dvr/internal/service/api"
	"dvr/internal/service/client"
	"dvr/internal/workloads"
)

// startHTTP serves srv without registering cleanup — for tests that
// restart servers over one spill directory and manage shutdown order
// themselves.
func startHTTP(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	return httptest.NewServer(srv.Handler())
}

// TestWorkerPanicIsIsolated: a panic inside a simulation fails that one
// request with a typed internal error — the daemon survives, the worker
// keeps draining, and the panic is counted at /metrics.
func TestWorkerPanicIsIsolated(t *testing.T) {
	var calls atomic.Int64
	inj := &faults.Injector{BeforeSim: func(string) {
		if calls.Add(1) == 1 {
			panic("injected simulator crash")
		}
	}}
	srv, ts := newTestServer(t, Config{Workers: 2, Common: Common{Faults: inj}})

	req := api.SimRequest{Workload: loopRef(3_100), Technique: "ooo"}
	resp, body := postJSON(t, ts.URL+"/v1/sim", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked sim: %s (want 500): %s", resp.Status, body)
	}
	var apiErr api.Error
	if err := json.Unmarshal(body, &apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Code != api.CodeInternal {
		t.Errorf("error code = %q, want %q", apiErr.Code, api.CodeInternal)
	}
	if !strings.Contains(apiErr.Error, "panic") {
		t.Errorf("error body does not mention the panic: %s", apiErr.Error)
	}

	// The same job again succeeds: the worker survived the panic.
	resp, body = postJSON(t, ts.URL+"/v1/sim", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sim after recovered panic: %s: %s", resp.Status, body)
	}
	if got := srv.Metrics().PanicsRecovered; got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}
}

// TestBatchIsolatesPanickedCell: one poisoned cell fails in place; the
// rest of the matrix completes and the response reports the per-cell
// failure instead of the whole batch dying.
func TestBatchIsolatesPanickedCell(t *testing.T) {
	var calls atomic.Int64
	inj := &faults.Injector{BeforeSim: func(string) {
		if calls.Add(1) == 1 {
			panic("injected cell crash")
		}
	}}
	_, ts := newTestServer(t, Config{Workers: 2, Common: Common{Faults: inj}})

	resp, body := postJSON(t, ts.URL+"/v1/batch", api.BatchRequest{
		Workloads:  []workloads.Ref{loopRef(3_200), loopRef(3_300)},
		Techniques: []string{"ooo"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with one poisoned cell: %s (want 200): %s", resp.Status, body)
	}
	var batch api.BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(batch.Cells))
	}
	if batch.Failed != 1 {
		t.Errorf("failed = %d, want 1", batch.Failed)
	}
	var ok, failed int
	for _, c := range batch.Cells {
		if c.Error != nil {
			failed++
			if c.Error.Code != api.CodeInternal {
				t.Errorf("failed cell code = %q, want %q", c.Error.Code, api.CodeInternal)
			}
		} else {
			ok++
			if c.Result.Instructions == 0 {
				t.Errorf("healthy cell has empty result: %+v", c)
			}
		}
	}
	if ok != 1 || failed != 1 {
		t.Errorf("ok=%d failed=%d, want 1/1", ok, failed)
	}
}

// TestLoadShedReturns429AndClientRetries: with every worker busy and the
// queue full, a new request is answered 429 + Retry-After immediately
// (not parked on the connection), and the stock retrying client
// transparently absorbs the shed once capacity frees up.
func TestLoadShedReturns429AndClientRetries(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	inj := &faults.Injector{BeforeSim: func(string) { <-release }}
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Common: Common{Faults: inj}})

	// Occupy the one worker and the one queue slot with distinct jobs
	// (distinct keys — identical jobs would collapse via single-flight).
	for _, roi := range []uint64{3_400, 3_500} {
		go func(roi uint64) {
			data, _ := json.Marshal(api.SimRequest{Workload: loopRef(roi), Technique: "ooo"})
			resp, err := http.Post(ts.URL+"/v1/sim", "application/json", bytes.NewReader(data))
			if err == nil {
				resp.Body.Close()
			}
		}(roi)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := srv.Metrics()
		if m.BusyWorkers == 1 && m.QueueDepth == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never saturated: %+v", srv.Metrics())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A raw request against the saturated pool is shed with the full
	// contract: 429, Retry-After, typed code.
	resp, body := postJSON(t, ts.URL+"/v1/sim", api.SimRequest{Workload: loopRef(3_600), Technique: "ooo"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated sim: %s (want 429): %s", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}
	var apiErr api.Error
	if err := json.Unmarshal(body, &apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Code != api.CodeOverloaded {
		t.Errorf("shed code = %q, want %q", apiErr.Code, api.CodeOverloaded)
	}

	// A saturated synchronous batch is shed up front too.
	resp, body = postJSON(t, ts.URL+"/v1/batch", api.BatchRequest{
		Workloads:  []workloads.Ref{loopRef(3_600)},
		Techniques: []string{"ooo"},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated batch: %s (want 429): %s", resp.Status, body)
	}

	// The stock client retries through the shed: release the blocked
	// simulations shortly after its first (shed) attempt.
	cli := client.New(ts.URL, client.WithRetryPolicy(client.RetryPolicy{
		MaxAttempts: 20,
		BaseDelay:   20 * time.Millisecond,
		MaxDelay:    100 * time.Millisecond,
		Budget:      20 * time.Second,
	}))
	time.AfterFunc(150*time.Millisecond, func() { once.Do(func() { close(release) }) })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	simResp, err := cli.Sim(ctx, api.SimRequest{Workload: loopRef(3_600), Technique: "ooo"})
	if err != nil {
		t.Fatalf("retrying client did not recover from shed: %v", err)
	}
	if simResp.Result.Instructions == 0 {
		t.Error("retried sim returned empty result")
	}
	if cli.Retries() == 0 {
		t.Error("client reported zero retries; expected at least one 429 retry")
	}
	if got := srv.Metrics().ShedTotal; got < 2 {
		t.Errorf("shed_total = %d, want >= 2", got)
	}
}

// TestLoadShedSparesCachedHits: the full queue is the worker's one
// overload signal, so a saturated pool sheds only requests that need a
// worker. A cached cell still answers 200 with its stored bytes; an
// uncached one is shed, and shed_total counts only it.
func TestLoadShedSparesCachedHits(t *testing.T) {
	release := make(chan struct{})
	var blocking atomic.Bool
	inj := &faults.Injector{BeforeSim: func(string) {
		if blocking.Load() {
			<-release
		}
	}}
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Common: Common{Faults: inj}})
	// Registered after newTestServer so it runs first: Shutdown waits on
	// the blocked sims.
	t.Cleanup(func() { close(release) })

	warm := api.SimRequest{Workload: loopRef(3_300), Technique: "ooo"}
	if resp, body := postJSON(t, ts.URL+"/v1/sim", warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming sim: %s: %s", resp.Status, body)
	}
	resp, warmBody := postJSON(t, ts.URL+"/v1/sim", warm)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm hit: %s: %s", resp.Status, warmBody)
	}

	blocking.Store(true)
	for _, roi := range []uint64{3_400, 3_500} {
		go func(roi uint64) {
			data, _ := json.Marshal(api.SimRequest{Workload: loopRef(roi), Technique: "ooo"})
			resp, err := http.Post(ts.URL+"/v1/sim", "application/json", bytes.NewReader(data))
			if err == nil {
				resp.Body.Close()
			}
		}(roi)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := srv.Metrics()
		if m.BusyWorkers == 1 && m.QueueDepth == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never saturated: %+v", srv.Metrics())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, body := postJSON(t, ts.URL+"/v1/sim", warm)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached sim on a saturated pool: %s (want 200): %s", resp.Status, body)
	}
	if !bytes.Equal(body, warmBody) {
		t.Errorf("cached sim on a saturated pool differs from the warm answer:\n got %s\nwant %s", body, warmBody)
	}
	resp, body = postJSON(t, ts.URL+"/v1/sim", api.SimRequest{Workload: loopRef(3_600), Technique: "ooo"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("uncached sim on a saturated pool: %s (want 429): %s", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}
	if got := srv.Metrics().ShedTotal; got != 1 {
		t.Errorf("shed_total = %d, want 1 (the uncached sim only)", got)
	}
}

// TestSingleFlightFollowerRetriesOnLeaderError: when the leader of a
// flight dies (here: panics), a follower whose context is still live
// re-runs the job once instead of parroting the leader's error.
func TestSingleFlightFollowerRetriesOnLeaderError(t *testing.T) {
	var calls atomic.Int64
	leaderStarted := make(chan struct{})
	inj := &faults.Injector{BeforeSim: func(string) {
		if calls.Add(1) == 1 {
			close(leaderStarted)
			time.Sleep(300 * time.Millisecond) // hold the flight open for the follower
			panic("injected leader crash")
		}
	}}
	srv, ts := newTestServer(t, Config{Workers: 2, Common: Common{Faults: inj}})

	req := api.SimRequest{Workload: loopRef(3_700), Technique: "ooo"}
	leaderStatus := make(chan int, 1)
	go func() {
		data, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/sim", "application/json", bytes.NewReader(data))
		if err != nil {
			leaderStatus <- 0
			return
		}
		resp.Body.Close()
		leaderStatus <- resp.StatusCode
	}()

	<-leaderStarted
	resp, body := postJSON(t, ts.URL+"/v1/sim", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower after leader crash: %s (want 200 via retry): %s", resp.Status, body)
	}
	if got := <-leaderStatus; got != http.StatusInternalServerError {
		t.Errorf("leader status = %d, want 500", got)
	}
	m := srv.Metrics()
	if m.SingleFlightRetries < 1 {
		t.Errorf("single_flight_retries = %d, want >= 1", m.SingleFlightRetries)
	}
	if m.PanicsRecovered != 1 {
		t.Errorf("panics_recovered = %d, want 1", m.PanicsRecovered)
	}
}

// TestCorruptSpillQuarantinedAtStartup: a spill entry corrupted on disk
// is detected by the boot scan, moved to quarantine/, never served, and
// the job re-simulates to the correct result.
func TestCorruptSpillQuarantinedAtStartup(t *testing.T) {
	dir := t.TempDir()
	srv1 := New(Config{CacheDir: dir})
	ts1 := startHTTP(t, srv1)
	req := api.SimRequest{Workload: loopRef(3_800), Technique: "ooo"}
	resp, body := postJSON(t, ts1.URL+"/v1/sim", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed sim: %s: %s", resp.Status, body)
	}
	var first api.SimResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	_ = srv1.Shutdown(context.Background())

	// Corrupt the spilled entry in place.
	spill := filepath.Join(dir, first.Key+".json")
	data, err := os.ReadFile(spill)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0xff
	if err := os.WriteFile(spill, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := New(Config{CacheDir: dir})
	ts2 := startHTTP(t, srv2)
	defer func() { ts2.Close(); _ = srv2.Shutdown(context.Background()) }()
	h := srv2.SpillHealth()
	if h.Scanned != 1 || h.Quarantined != 1 || h.Healthy != 0 {
		t.Errorf("spill health = %+v, want scanned=1 quarantined=1 healthy=0", h)
	}
	if _, err := os.Stat(spill); !os.IsNotExist(err) {
		t.Error("corrupt spill entry still present in the main directory")
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", first.Key+".json")); err != nil {
		t.Errorf("corrupt entry not in quarantine: %v", err)
	}

	// The job re-simulates (never served from the corrupt entry) and the
	// fresh result is bit-identical to the original.
	resp, body = postJSON(t, ts2.URL+"/v1/sim", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sim after quarantine: %s: %s", resp.Status, body)
	}
	var second api.SimResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Error("request served from cache despite quarantined spill")
	}
	a, _ := json.Marshal(first.Result.Canonical())
	b, _ := json.Marshal(second.Result.Canonical())
	if !bytes.Equal(a, b) {
		t.Errorf("re-simulated result differs from original:\n%s\n%s", a, b)
	}
	if got := srv2.Metrics().SpillQuarantined; got < 1 {
		t.Errorf("spill_quarantined = %d, want >= 1", got)
	}
}

// TestCorruptSpillQuarantinedAtRead: corruption that lands after startup
// (another process, bit rot) is caught on the read path — the entry is
// quarantined instead of served.
func TestCorruptSpillQuarantinedAtRead(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{CacheDir: dir})
	ref := loopRef(3_900)
	key := CacheKey(ref, "ooo", cpu.DefaultConfig())
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{not a result, no footer"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/sim", api.SimRequest{Workload: ref, Technique: "ooo"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sim over corrupt spill: %s: %s", resp.Status, body)
	}
	var got api.SimResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Cached {
		t.Error("corrupt spill entry was served as a cache hit")
	}
	if got.Result.Instructions == 0 {
		t.Error("re-simulated result is empty")
	}
	if n := srv.Metrics().SpillQuarantined; n < 1 {
		t.Errorf("spill_quarantined = %d, want >= 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", key+".json")); err != nil {
		t.Errorf("corrupt entry not quarantined: %v", err)
	}
}

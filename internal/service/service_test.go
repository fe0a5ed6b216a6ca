package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/graphgen"
	"dvr/internal/interp"
	"dvr/internal/isa"
	"dvr/internal/mem"
	"dvr/internal/service/api"
	"dvr/internal/workloads"
)

// The tests register a trivial ALU-loop kernel: it builds in microseconds
// (no graph, no memory image) so tests spend their time exercising the
// service machinery, not the simulator, and an enormous ROI makes a
// conveniently slow job for deadline tests.
func init() {
	workloads.Register(workloads.Kernel{
		Name:       "svc-test-loop",
		DefaultROI: 10_000,
		Build: func(*graphgen.Graph) *workloads.Workload {
			b := isa.NewBuilder("svc-test-loop")
			b.Li(0, 0)
			b.Label("top")
			b.AddI(0, 0, 1)
			b.Jmp("top")
			// Skip must be nonzero: Frontend runs the interpreter for
			// Skip instructions, and Skip==0 means "to completion",
			// which never comes for this loop.
			return &workloads.Workload{Name: "svc-test-loop", Prog: b.MustBuild(), Mem: interp.NewMemory(), Skip: 1}
		},
	})
}

func loopRef(roi uint64) workloads.Ref {
	return workloads.Ref{Kernel: "svc-test-loop", ROI: roi}
}

func graphRef(roi uint64) workloads.Ref {
	return workloads.Ref{
		Kernel: "cc",
		Graph:  &graphgen.Params{Gen: graphgen.GenKronecker, Scale: 8, EdgeFactor: 4, Seed: 7, Name: "ST"},
		ROI:    roi,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

// runRef answers one exact cell on srv the way a batch answers its cells.
func runRef(ctx context.Context, srv *Server, ref workloads.Ref, tech string, cfg cpu.Config) (api.SimResponse, error) {
	sc := newSimConfig(&cfg, nil)
	c, err := resolveCell(ref, tech, sc)
	if err != nil {
		return api.SimResponse{}, err
	}
	resp, _, err := srv.runCell(ctx, c, sc, admitQueue, nil)
	return resp, err
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestSimCacheHitIsByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := api.SimRequest{Workload: graphRef(8_000), Technique: "dvr"}

	var first, second api.SimResponse
	resp, body := postJSON(t, ts.URL+"/v1/sim", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first sim: %s: %s", resp.Status, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first request reported cached")
	}
	resp, body = postJSON(t, ts.URL+"/v1/sim", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second sim: %s: %s", resp.Status, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second identical request not served from cache")
	}
	if first.Key == "" || first.Key != second.Key {
		t.Errorf("keys differ: %q vs %q", first.Key, second.Key)
	}
	a, _ := json.Marshal(first.Result.Canonical())
	b, _ := json.Marshal(second.Result.Canonical())
	if !bytes.Equal(a, b) {
		t.Errorf("cached result not byte-identical:\n%s\n%s", a, b)
	}
	if first.Result.SchemaVersion != cpu.ResultSchemaVersion {
		t.Errorf("result schema version = %d, want %d", first.Result.SchemaVersion, cpu.ResultSchemaVersion)
	}
}

func TestConcurrentIdenticalRequestsSingleFlight(t *testing.T) {
	const roi = 60_000
	srv, ts := newTestServer(t, Config{Workers: 4})
	before := experiments.SimInstructions()

	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, body := func() (*http.Response, []byte) {
				data, _ := json.Marshal(api.SimRequest{Workload: loopRef(roi), Technique: "ooo"})
				r, err := http.Post(ts.URL+"/v1/sim", "application/json", bytes.NewReader(data))
				if err != nil {
					return nil, nil
				}
				defer r.Body.Close()
				var buf bytes.Buffer
				buf.ReadFrom(r.Body)
				return r, buf.Bytes()
			}()
			if resp == nil || resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("sim failed: %v %s", resp, body)
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// The decisive signal: 8 concurrent identical requests must cost at
	// most one simulation's worth of instructions (single-flight), not 8.
	delta := experiments.SimInstructions() - before
	if delta > roi+roi/2 {
		t.Errorf("simulated %d instructions for %d identical concurrent requests; want ~%d (single flight)", delta, n, roi)
	}
	m := srv.Metrics()
	if m.CacheEntries != 1 {
		t.Errorf("cache entries = %d, want 1", m.CacheEntries)
	}
}

func TestDeadlineExceededReturns504AndFreesWorker(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// Effectively unbounded job with a 100 ms deadline.
	resp, body := postJSON(t, ts.URL+"/v1/sim", api.SimRequest{
		Workload:  loopRef(4_000_000_000),
		Technique: "ooo",
		TimeoutMS: 100,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline-exceeded request: %s (want 504): %s", resp.Status, body)
	}
	// With a single worker, this only succeeds if the cancelled simulation
	// actually released it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, body = postJSON(t, ts.URL+"/v1/sim", api.SimRequest{Workload: loopRef(5_000), Technique: "ooo"})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("follow-up request hung: worker not freed after deadline")
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up request after timeout: %s: %s", resp.Status, body)
	}
}

func TestMalformedRequestsReturn400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []api.SimRequest{
		{Workload: loopRef(1000), Technique: "warp-drive"},          // unknown technique
		{Workload: workloads.Ref{Kernel: "nope"}, Technique: "ooo"}, // unknown kernel
		{Workload: workloads.Ref{Kernel: "bfs"}, Technique: "ooo"},  // graph kernel, no graph
		{Workload: workloads.Ref{Kernel: "svc-test-loop", Graph: &graphgen.Params{Gen: "bogus"}}, Technique: "ooo"},
	}
	for i, req := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/sim", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %s, want 400: %s", i, resp.Status, body)
		}
	}
}

func TestBatchCacheAccountsEveryCell(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := api.BatchRequest{
		Workloads:  []workloads.Ref{loopRef(4_000), loopRef(6_000)},
		Techniques: []string{"ooo", "dvr"},
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first batch: %s: %s", resp.Status, body)
	}
	var first api.BatchResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if len(first.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(first.Cells))
	}
	resp, body = postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second batch: %s: %s", resp.Status, body)
	}
	var second api.BatchResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != len(second.Cells) {
		t.Errorf("second batch cache hits = %d, want %d (every cell)", second.CacheHits, len(second.Cells))
	}
	for i := range first.Cells {
		if !reflect.DeepEqual(first.Cells[i].Result, second.Cells[i].Result) {
			t.Errorf("cell %d differs between batches", i)
		}
	}
}

func TestGracefulShutdownDrainsInFlightJobs(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/batch", api.BatchRequest{
		Workloads:  []workloads.Ref{loopRef(150_000), loopRef(250_000)},
		Techniques: []string{"ooo"},
		Async:      true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async batch: %s: %s", resp.Status, body)
	}
	var accepted api.BatchResponse
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.JobID == "" {
		t.Fatal("async batch returned no job id")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}

	httpResp, err := http.Get(ts.URL + "/v1/jobs/" + accepted.JobID)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var status api.JobStatus
	if err := json.NewDecoder(httpResp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.State != api.JobDone {
		t.Errorf("after shutdown, job state = %q (error %q), want done: shutdown returned before draining", status.State, status.Error)
	}
	if status.Batch == nil || len(status.Batch.Cells) != 2 {
		t.Errorf("drained job missing results: %+v", status)
	}
}

func TestDiskSpillSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv1 := New(Config{CacheDir: dir})
	ts1 := httptest.NewServer(srv1.Handler())
	req := api.SimRequest{Workload: loopRef(7_000), Technique: "ooo"}
	resp, body := postJSON(t, ts1.URL+"/v1/sim", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sim: %s: %s", resp.Status, body)
	}
	var first api.SimResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	_ = srv1.Shutdown(context.Background())

	// A fresh server over the same spill directory answers from cache.
	srv2 := New(Config{CacheDir: dir})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Shutdown(context.Background())
	resp, body = postJSON(t, ts2.URL+"/v1/sim", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sim after restart: %s: %s", resp.Status, body)
	}
	var second api.SimResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("restarted server did not answer from disk spill")
	}
	if !reflect.DeepEqual(first.Result, second.Result) {
		t.Error("disk-spilled result differs from original")
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	postJSON(t, ts.URL+"/v1/sim", api.SimRequest{Workload: loopRef(3_000), Technique: "ooo"})
	postJSON(t, ts.URL+"/v1/sim", api.SimRequest{Workload: loopRef(3_000), Technique: "ooo"})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m api.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Workers != 2 {
		t.Errorf("workers = %d, want 2", m.Workers)
	}
	if m.CacheHits < 1 || m.CacheMisses < 1 {
		t.Errorf("cache counters not accounting: hits=%d misses=%d", m.CacheHits, m.CacheMisses)
	}
	if m.SimInstructions == 0 {
		t.Error("sim_instructions = 0 after a simulation")
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	cfg := cpu.DefaultConfig()
	base := CacheKey(loopRef(1000), "ooo", cfg)
	if CacheKey(loopRef(1000), "ooo", cfg) != base {
		t.Error("identical jobs produced different keys")
	}
	if CacheKey(loopRef(2000), "ooo", cfg) == base {
		t.Error("ROI not in the key")
	}
	if CacheKey(loopRef(1000), "dvr", cfg) == base {
		t.Error("technique not in the key")
	}
	if CacheKey(loopRef(1000), "ooo", cfg.WithROB(128)) == base {
		t.Error("config not in the key")
	}
	if CacheKey(graphRef(1000), "ooo", cfg) == base {
		t.Error("workload not in the key")
	}
}

// TestUnknownTechniqueRejected: a technique nobody registered is refused
// with experiments.ErrUnknownTechnique on every way into a run — Run,
// RunAll, a sampled job — and as a 400 by dvrd's resolveCell, before any
// simulation starts. Registering a name twice panics at registration, as
// workloads.Register does.
func TestUnknownTechniqueRejected(t *testing.T) {
	spec, err := workloads.Resolve(loopRef(1000))
	if err != nil {
		t.Fatal(err)
	}
	const bogus = "warp-drive"
	job := experiments.Job{Spec: spec, Tech: bogus, Cfg: cpu.DefaultConfig()}
	ctx := context.Background()
	for name, run := range map[string]func() error{
		"Run": func() error {
			_, err := experiments.Run(ctx, job)
			return err
		},
		"RunAll": func() error {
			ok := job
			ok.Tech = experiments.TechOoO
			_, err := experiments.RunAll(ctx, []experiments.Job{ok, job})
			return err
		},
		"sampled Run": func() error {
			sampled := job
			sampled.Sample = &experiments.SampleOptions{}
			_, err := experiments.Run(ctx, sampled)
			return err
		},
		"resolveCell": func() error {
			_, err := resolveCell(loopRef(1000), bogus, newSimConfig(nil, nil))
			if code := httpStatus(err); code != http.StatusBadRequest {
				t.Errorf("resolveCell: status %d, want 400", code)
			}
			return err
		},
	} {
		if err := run(); !errors.Is(err, experiments.ErrUnknownTechnique) {
			t.Errorf("%s: got %v, want ErrUnknownTechnique", name, err)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("registering ooo a second time did not panic")
		}
	}()
	experiments.Register(experiments.TechOoO, func(*interp.Interp, *workloads.Workload, *mem.Hierarchy, cpu.Config) cpu.Engine { return nil })
}

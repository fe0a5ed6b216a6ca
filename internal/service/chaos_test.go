package service

// The chaos suite: quick-suite-sized batches under randomized (but
// seeded, replayable) fault schedules — scripted worker panics, failing
// and corrupting spill I/O, artificially slow simulations, a pool small
// enough that load shedding actually fires. The invariants mirror the
// paper's own bar for speculation gone wrong (validate, fall back, never
// corrupt architectural state):
//
//  1. the server never exits — it answers /healthz after the storm;
//  2. no corrupted result is ever served — every 200 is bit-identical to
//     the fault-free baseline for that key;
//  3. every request terminates with a result or a typed error;
//  4. a fault-free re-run over the surviving spill directory reproduces
//     the baseline bit-for-bit.
//
// (The figure-level bit-identity bar — quick fig7 via dvrd matching the
// in-process path — is held by the CI dvrd-smoke job and the experiments
// figure tests; this suite keeps its workloads tiny so it can run under
// -race on every push.)

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"dvr/internal/faults"
	"dvr/internal/service/api"
	"dvr/internal/service/client"
	"dvr/internal/workloads"
)

// chaosJobs is the cell matrix the storm draws from: distinct ROIs make
// distinct cache keys, ooo and dvr cover the no-engine and full-engine
// simulation paths.
func chaosJobs() []api.SimRequest {
	var jobs []api.SimRequest
	for _, roi := range []uint64{4_100, 4_300, 4_700, 5_300} {
		for _, tech := range []string{"ooo", "dvr"} {
			jobs = append(jobs, api.SimRequest{Workload: loopRef(roi), Technique: tech})
		}
	}
	return jobs
}

// chaosBaseline computes the fault-free canonical bytes for every job on
// a clean server, keyed by cache key.
func chaosBaseline(t *testing.T, jobs []api.SimRequest) map[string][]byte {
	t.Helper()
	_, ts := newTestServer(t, Config{})
	baseline := make(map[string][]byte, len(jobs))
	for _, job := range jobs {
		resp, body := postJSON(t, ts.URL+"/v1/sim", job)
		if resp.StatusCode != 200 {
			t.Fatalf("baseline sim: %s: %s", resp.Status, body)
		}
		var sim api.SimResponse
		if err := json.Unmarshal(body, &sim); err != nil {
			t.Fatal(err)
		}
		canon, _ := json.Marshal(sim.Result.Canonical())
		baseline[sim.Key] = canon
	}
	return baseline
}

func TestChaosServerSurvivesFaultSchedules(t *testing.T) {
	jobs := chaosJobs()
	baseline := chaosBaseline(t, jobs)
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaos(t, seed, jobs, baseline)
		})
	}
}

func runChaos(t *testing.T, seed uint64, jobs []api.SimRequest, baseline map[string][]byte) {
	dir := t.TempDir()
	ffs := faults.NewFaultyFS(nil, seed)
	ffs.FailWriteEvery = 3
	ffs.CorruptWriteEvery = 4
	ffs.FailReadEvery = 5
	sim := &faults.SimFaults{PanicEvery: 5, SlowEvery: 3, Slow: 5 * time.Millisecond}
	srv, ts := newTestServer(t, Config{
		Workers:    2,
		QueueDepth: 2, // small enough that shedding fires under the storm
		CacheDir:   dir,
		Common:     Common{Faults: &faults.Injector{FS: ffs, BeforeSim: sim.BeforeSim}},
	})

	cli := client.New(ts.URL, client.WithRetryPolicy(client.RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    25 * time.Millisecond,
		Budget:      5 * time.Second,
	}))

	// The storm: concurrent clients hammering random jobs. Each outcome
	// must be a baseline-identical result or a typed error — nothing
	// else, and in particular nothing corrupted and no hung request.
	const clients, reqsPerClient = 4, 8
	var (
		mu         sync.Mutex
		violations []string
	)
	addViolation := func(format string, args ...any) {
		mu.Lock()
		violations = append(violations, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	checkSim := func(who string, resp api.SimResponse, err error) {
		if err != nil {
			var ae *client.APIError
			if !errors.As(err, &ae) && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
				addViolation("%s: untyped error: %v", who, err)
			} else if ae != nil && ae.Code == "" {
				addViolation("%s: API error without code: %v", who, err)
			}
			return
		}
		want, ok := baseline[resp.Key]
		if !ok {
			addViolation("%s: result under unknown key %s", who, resp.Key)
			return
		}
		canon, _ := json.Marshal(resp.Result.Canonical())
		if !bytes.Equal(canon, want) {
			addViolation("%s: served result differs from fault-free baseline:\n got %s\nwant %s", who, canon, want)
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(c)))
			for i := 0; i < reqsPerClient; i++ {
				job := jobs[rng.IntN(len(jobs))]
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				resp, err := cli.Sim(ctx, job)
				cancel()
				checkSim(fmt.Sprintf("client %d req %d", c, i), resp, err)
			}
		}(c)
	}
	wg.Wait()

	// One full batch through the storm: every cell must be a verified
	// result or a typed per-cell error.
	refs := make([]workloads.Ref, 0, len(jobs)/2)
	for _, j := range jobs {
		if j.Technique == "ooo" {
			refs = append(refs, j.Workload)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	batch, err := cli.Batch(ctx, api.BatchRequest{Workloads: refs, Techniques: []string{"ooo", "dvr"}})
	if err != nil {
		var ae *client.APIError
		if !errors.As(err, &ae) {
			addViolation("batch: untyped error: %v", err)
		}
	} else {
		for i, cell := range batch.Cells {
			if cell.Error != nil {
				if cell.Error.Code == "" {
					addViolation("batch cell %d: error without code: %+v", i, cell.Error)
				}
				continue
			}
			checkSim(fmt.Sprintf("batch cell %d", i), cell, nil)
		}
	}

	// Invariant 1: the server survived the storm.
	if err := cli.Healthz(ctx); err != nil {
		t.Fatalf("server unhealthy after chaos: %v", err)
	}
	m := srv.Metrics()
	panics, slows := sim.Counters()
	wFail, wCorrupt, rFail := ffs.Counters()
	t.Logf("chaos seed %d: panics=%d slows=%d spill(wFail=%d wCorrupt=%d rFail=%d) metrics: recovered=%d shed=%d sfRetries=%d quarantined=%d",
		seed, panics, slows, wFail, wCorrupt, rFail,
		m.PanicsRecovered, m.ShedTotal, m.SingleFlightRetries, m.SpillQuarantined)
	if panics > 0 && m.PanicsRecovered == 0 {
		addViolation("injected %d panics but panics_recovered = 0", panics)
	}

	for _, v := range violations {
		t.Error(v)
	}

	// Invariant 4: a fault-free server over the surviving spill dir (its
	// startup scan quarantines whatever corruption the storm left behind)
	// reproduces the baseline bit-for-bit.
	srv2, ts2 := newTestServer(t, Config{CacheDir: dir})
	h := srv2.SpillHealth()
	t.Logf("post-chaos spill: scanned=%d healthy=%d quarantined=%d", h.Scanned, h.Healthy, h.Quarantined)
	for _, job := range jobs {
		resp, body := postJSON(t, ts2.URL+"/v1/sim", job)
		if resp.StatusCode != 200 {
			t.Fatalf("fault-free re-run: %s: %s", resp.Status, body)
		}
		var simResp api.SimResponse
		if err := json.Unmarshal(body, &simResp); err != nil {
			t.Fatal(err)
		}
		canon, _ := json.Marshal(simResp.Result.Canonical())
		if !bytes.Equal(canon, baseline[simResp.Key]) {
			t.Errorf("fault-free re-run differs from baseline for key %s:\n got %s\nwant %s",
				simResp.Key, canon, baseline[simResp.Key])
		}
	}
}

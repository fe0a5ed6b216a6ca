package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dvr/internal/cpu"
	"dvr/internal/service"
	"dvr/internal/service/api"
	"dvr/internal/service/client"
	"dvr/internal/stats"
	"dvr/internal/workloads"
)

// warmServer is one dvrd (role single, documented defaults, -cache-dir on a
// temp dir) whose cache holds the 78-cell quick Figure 7, plus what a
// correct cache hit must look like.
type warmServer struct {
	p         *proc
	cli       *client.Client
	refs      []workloads.Ref
	simBodies [][]byte // request body per cell, row-major refs x figTechs
	simWant   [][]byte // the byte-exact cache-hit response per cell
	batchBody []byte
	batchWant []byte
	batchResp api.BatchResponse
}

func techNames() []string {
	names := make([]string, len(figTechs))
	for i, t := range figTechs {
		names[i] = string(t)
	}
	return names
}

// httpDo POSTs body to url, or GETs it when body is nil, and returns the
// status and the whole response.
func httpDo(ctx context.Context, hc *http.Client, url string, body []byte) (int, []byte, error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// startWarm starts a dvrd, fills its cache with the suite (the cold pass of
// `dvrbench -server fig7`), and records the byte-exact cache-hit answers
// (its second pass). All of it is set-up.
func (r *run) startWarm(ctx context.Context, parent *liveSpan, idx int) (*warmServer, error) {
	sp := r.spans.start("dvrd.start", parent)
	p, err := r.procs.start("single", r.tracing(), "-role", "single",
		"-cache-dir", filepath.Join(r.tmpDir, fmt.Sprintf("single-%d", idx)))
	if err == nil {
		err = waitHTTP(ctx, r.hc, p.base+"/healthz", "ok")
	}
	sp.end()
	if err != nil {
		return nil, err
	}
	ws := &warmServer{p: p, refs: suiteRefs(r.o.seed, r.sz.graphScale, r.sz.roiServe)}
	ws.cli = client.New(p.base, client.WithHTTPClient(r.hc))

	req := api.BatchRequest{Workloads: ws.refs, Techniques: techNames()}
	sp = r.spans.start("prefill", parent)
	_, err = ws.cli.Batch(ctx, req)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("cache pre-fill: %w", err)
	}

	sp = r.spans.start("expect", parent)
	defer sp.end()
	if ws.batchBody, err = json.Marshal(req); err != nil {
		return nil, err
	}
	code, want, err := httpDo(ctx, r.hc, p.base+"/v1/batch", ws.batchBody)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("warm batch: status %d: %v", code, err)
	}
	ws.batchWant = want
	if err := json.Unmarshal(want, &ws.batchResp); err != nil {
		return nil, err
	}
	for _, ref := range ws.refs {
		for _, tech := range figTechs {
			body, err := json.Marshal(api.SimRequest{Workload: ref, Technique: string(tech)})
			if err != nil {
				return nil, err
			}
			code, want, err := httpDo(ctx, r.hc, p.base+"/v1/sim", body)
			if err != nil || code != http.StatusOK {
				return nil, fmt.Errorf("warm sim %s/%s: status %d: %v", ref.Kernel, tech, code, err)
			}
			ws.simBodies = append(ws.simBodies, body)
			ws.simWant = append(ws.simWant, want)
		}
	}
	return ws, nil
}

// verifyWarm checks the set-up answers themselves: the fill simulated every
// cell, the second pass was served from cache, and every result obeys the
// conservation checks.
func (r *run) verifyWarm(ws *warmServer) {
	cells := len(ws.refs) * len(figTechs)
	r.attempt(1)
	if len(ws.batchResp.Cells) != cells || ws.batchResp.CacheHits != cells || ws.batchResp.Failed != 0 {
		r.failf("warm batch: %d cells, %d cache hits, %d failed; want %d/%d/0",
			len(ws.batchResp.Cells), ws.batchResp.CacheHits, ws.batchResp.Failed, cells, cells)
	}
	width := cpu.DefaultConfig().Width
	for i, c := range ws.batchResp.Cells {
		r.attempt(1)
		if !c.Cached {
			r.failf("warm batch cell %d is not marked cached", i)
			continue
		}
		if err := checkResult(c.Result, r.sz.roiServe, width); err != nil {
			r.failf("%v", err)
			continue
		}
		var sim api.SimResponse
		if err := json.Unmarshal(ws.simWant[i], &sim); err != nil || !sim.Cached || sim.Key != c.Key {
			r.failf("warm sim cell %d: cached=%v key match=%v err=%v", i, sim.Cached, sim.Key == c.Key, err)
		}
	}
}

// hitLoop is one closed-loop phase against the warm server: each of the
// run's clients sends its next request only after the previous answer, on
// its own keep-alive connection. Every answer must be byte-equal to want.
// It stops at deadline, or after maxOps answers when maxOps > 0, and
// returns the per-op latencies in milliseconds, the elapsed time, and how
// many correct answers each body got.
func (r *run) hitLoop(ctx context.Context, url string, bodies, want [][]byte, order []int,
	deadline time.Time, maxOps int, traced bool) ([]float64, time.Duration, []int64) {
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		lats   = make([][]float64, r.clients())
		counts = make([]atomic.Int64, len(bodies))
	)
	var spans *spanLog
	if traced {
		spans = r.spans
	}
	start := time.Now()
	for c := 0; c < r.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				n := int(next.Add(1)) - 1
				if maxOps > 0 && n >= maxOps {
					return
				}
				if maxOps == 0 && !time.Now().Before(deadline) {
					return
				}
				i := order[n%len(order)]
				op := spans.start("op", nil)
				hs := spans.start("http.roundtrip", op)
				t0 := time.Now()
				code, got, err := httpDo(ctx, r.hc, url, bodies[i])
				d := time.Since(t0)
				hs.end()
				vs := spans.start("verify", op)
				r.attempt(1)
				switch {
				case err != nil:
					r.failf("%s: %v", url, err)
				case code != http.StatusOK:
					r.failf("%s: status %d", url, code)
				case !bytes.Equal(got, want[i]):
					r.failf("%s: answer %d differs from the set-up answer for the same key", url, i)
				default:
					lats[c] = append(lats[c], float64(d.Nanoseconds())/1e6)
					counts[i].Add(1)
				}
				vs.end()
				op.end()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	per := make([]int64, len(counts))
	for i := range counts {
		per[i] = counts[i].Load()
	}
	return all, elapsed, per
}

// serveWarm: phase A is cache-hit POST /v1/sim (one op each), phase B fully
// cached 78-cell POST /v1/batch (one batch each), both closed-loop.
func (r *run) serveWarm(ctx context.Context) error {
	var (
		setups []float64
		ws     *warmServer
	)
	for i := 0; i < r.sz.setupReps; i++ {
		if ws != nil {
			ws.p.stop()
		}
		sp := r.spans.start("setup", nil)
		t0 := time.Now()
		s, err := r.startWarm(ctx, sp, i)
		sp.end()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		ws = s
	}
	r.setE2E("setup_s", median(setups), len(setups))
	r.verifyWarm(ws)

	order := schedule(r.o.seed, len(ws.simBodies))
	before, err := scrape(ctx, r.hc, ws.p.base)
	if err != nil {
		return err
	}
	var rs0 runtimeStats
	if r.tracing() {
		if rs0, err = ws.p.runtimeStats(ctx, r.hc); err != nil {
			return err
		}
	}
	budget := time.Duration(r.o.seconds) * time.Second
	var untracedP50 float64
	if r.tracing() {
		// A short untraced stretch first gives the traced one its baseline.
		lats, _, _ := r.hitLoop(ctx, ws.p.base+"/v1/sim", ws.simBodies, ws.simWant, order,
			time.Now().Add(budget/4), r.sz.maxReqs, false)
		untracedP50 = median(lats)
		budget /= 2
	}
	latA, elapsedA, served := r.hitLoop(ctx, ws.p.base+"/v1/sim", ws.simBodies, ws.simWant, order,
		time.Now().Add(budget*7/10), r.sz.maxReqs, r.tracing())
	mid, err := scrape(ctx, r.hc, ws.p.base)
	if err != nil {
		return err
	}
	latB, _, _ := r.hitLoop(ctx, ws.p.base+"/v1/batch", [][]byte{ws.batchBody}, [][]byte{ws.batchWant}, []int{0},
		time.Now().Add(budget*3/10), r.sz.maxBatches, false)
	after, err := scrape(ctx, r.hc, ws.p.base)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(latA) == 0 || len(latB) == 0 {
		return fmt.Errorf("no successful requests (phase A %d, phase B %d)", len(latA), len(latB))
	}

	// The simulator is idle while the cache answers; what a caller gets per
	// host second is the simulated instructions behind the answers, which
	// is the rate the cache exists to multiply.
	var insts float64
	for i, n := range served {
		insts += float64(n) * float64(ws.batchResp.Cells[i].Result.Instructions)
	}
	a := summarize(latA, 95)
	r.setE2E("sim_mips", insts/elapsedA.Seconds()/1e6, len(latA))
	r.setE2E("ops_per_s", float64(len(latA))/elapsedA.Seconds(), len(latA))
	r.setOpLatency(a)
	r.setE2E("wall_s", median(latB)/1e3, len(latB))

	// Nothing in the timed phases may have missed the cache.
	d := after.delta(before)
	hits, misses := d["dvrd_cache_hits_total"], d["dvrd_cache_misses_total"]
	r.attempt(1)
	if misses != 0 || hits == 0 {
		r.failf("timed phases saw %g cache hits and %g misses; want every lookup to hit", hits, misses)
	}
	if !r.tracing() {
		return nil
	}

	r.setLayer("service.cache_hit_ratio", hits/(hits+misses), int(hits+misses))
	r.setLayer("bench.trace_overhead_pct", 100*(a.P50/untracedP50-1), a.N)
	// Client-observed mean latency against the server's own histogram over
	// phase A: the gap is the HTTP stack and the loopback.
	dA := mid.delta(before)
	if srv := dA.histMean("dvrd_request_duration_seconds") * 1e3; srv > 0 {
		r.setLayer("bench.latency_xcheck_pct", 100*(stats.Mean(latA)/srv-1), a.N)
	}
	ops := d["dvrd_requests_total"]
	r.setLayer("obs.spans_per_op", (d["dvrd_obs_spans"]+d["dvrd_obs_spans_dropped_total"])/ops, int(ops))
	r.setLayer("obs.dropped", d["dvrd_obs_spans_dropped_total"], int(ops))

	rs1, err := ws.p.runtimeStats(ctx, r.hc)
	if err != nil {
		return err
	}
	r.setLayer("process.allocs_per_op", (rs1.Mallocs-rs0.Mallocs)/ops, int(ops))
	r.setLayer("process.gc_cpu_frac", rs1.GCCPUFraction, 1)
	r.setLayer("client.retries", float64(ws.cli.Retries()), 1)
	r.setLayer("process.peak_rss_mb", selfPeakRSSMB()+ws.p.peakRSSMB(), 2)
	return r.serviceProbes(ctx, ws, a.P50)
}

// serviceProbes times the pieces of a cache hit that can be called on their
// own: the HTTP floor, the content address, and the 78-cell batch codec.
func (r *run) serviceProbes(ctx context.Context, ws *warmServer, hitP50MS float64) error {
	sp := r.spans.start("probes.service", nil)
	defer sp.end()

	n := 2000
	if r.o.smoke {
		n = 100
	}
	// The HTTP floor: GET /healthz under the same closed loop as the hits,
	// so both see the same connection reuse and scheduler wake-ups.
	floor, _, _ := r.hitLoop(ctx, ws.p.base+"/healthz", [][]byte{nil}, [][]byte{[]byte("ok\n")}, []int{0},
		time.Time{}, 4*n, false)
	if len(floor) == 0 {
		return fmt.Errorf("healthz probe: no successful request")
	}
	floorUS := median(floor) * 1e3
	r.setLayer("client.healthz_us", floorUS, len(floor))
	r.setLayer("service.hit_self_us", hitP50MS*1e3-floorUS, len(floor))

	cfg := cpu.DefaultConfig()
	r.setLayer("service.cachekey_us", perCall(3, n, func() {
		for i := 0; i < n; i++ {
			_ = service.CacheKey(ws.refs[i%len(ws.refs)], string(figTechs[i%len(figTechs)]), cfg)
		}
	})/1e3, 3*n)

	const codecReps = 30
	var encErr, decErr error
	r.setLayer("api.encode_batch78_us", perCall(3, codecReps, func() {
		for i := 0; i < codecReps; i++ {
			if _, err := json.Marshal(ws.batchResp); err != nil {
				encErr = err
			}
		}
	})/1e3, 3*codecReps)
	r.setLayer("api.decode_batch78_us", perCall(3, codecReps, func() {
		for i := 0; i < codecReps; i++ {
			var out api.BatchResponse
			if err := json.Unmarshal(ws.batchWant, &out); err != nil {
				decErr = err
			}
		}
	})/1e3, 3*codecReps)
	if encErr != nil || decErr != nil {
		return fmt.Errorf("batch codec probe: encode %v, decode %v", encErr, decErr)
	}
	return nil
}

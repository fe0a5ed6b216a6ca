package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"dvr/internal/cpu"
	"dvr/internal/faults"
	"dvr/internal/service/api"
	"dvr/internal/workloads"
)

// encoderBytes is the reference every served body is held to:
// encoding/json's streaming encoder at a two-space indent, written out
// here rather than shared with the code under test.
func encoderBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomResult draws a canonical Result with every field random: counters
// and floats of any magnitude, names with characters the encoder escapes,
// engine stats present or all zero, sampled provenance present or absent.
func randomResult(t *testing.T, rng *rand.Rand) cpu.Result {
	t.Helper()
	v, ok := quick.Value(reflect.TypeOf(cpu.Result{}), rng)
	if !ok {
		t.Fatal("cannot generate a cpu.Result")
	}
	res := v.Interface().(cpu.Result)
	res.Name += `<a&b> "q" \ ` + "\u2028\t"
	if rng.Intn(2) == 0 {
		res.Engine = cpu.EngineStats{}
	}
	if rng.Intn(2) == 0 {
		res.Sampled = nil
	} else if res.Sampled == nil {
		res.Sampled = &cpu.SampledProvenance{Phases: 2, PhaseWeights: []float64{0.25, 0.75}}
	}
	return res.Canonical()
}

// TestSpliceMatchesEncoder: whatever mix of cells a synchronous batch holds
// (cache hits spliced from stored bytes, freshly simulated cells, a cell
// that failed in isolation), and whatever the results look like, the body
// on the wire is byte for byte what the encoder makes of the response; so
// is every /v1/sim hit.
func TestSpliceMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	// kinds[i%len] decides what cell i is: a cache hit, a cell whose
	// simulation panics, or (any other letter) one the request simulates.
	const hit, failed = 'h', 'x'
	for _, tc := range []struct {
		cells int
		kinds string
	}{
		{1, "h"}, {1, "f"}, {1, "x"},
		{78, "h"}, {78, "hhf"}, {78, "hfhhxhh"}, {78, "f"},
	} {
		t.Run(fmt.Sprintf("%d-%s", tc.cells, tc.kinds), func(t *testing.T) {
			poisoned := map[string]bool{}
			srv := New(Config{Common: Common{Faults: &faults.Injector{BeforeSim: func(key string) {
				if poisoned[key] {
					panic("injected cell crash\n\twith a stack-like second line")
				}
			}}}})
			defer shutdown(t, srv)
			sc, _ := newSimConfig(nil)
			req := api.BatchRequest{Techniques: []string{"ooo"}}
			want := map[int]api.SimResponse{} // the hits: known before the request
			nFailed := 0
			for i := 0; i < tc.cells; i++ {
				ref := loopRef(uint64(1_000 + i))
				req.Workloads = append(req.Workloads, ref)
				c, err := resolveCell(ref, "ooo", sc)
				if err != nil {
					t.Fatal(err)
				}
				switch tc.kinds[i%len(tc.kinds)] {
				case hit:
					res := randomResult(t, rng)
					srv.cache.Put(c.key, res)
					want[i] = api.SimResponse{Key: c.key, Cached: true, Result: res}
				case failed:
					poisoned[c.key] = true
					nFailed++
				}
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			h := srv.Handler()
			rec := serve(h, http.MethodPost, "/v1/batch", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("batch: status %d: %s", rec.Code, rec.Body)
			}
			var got api.BatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if len(got.Cells) != tc.cells || got.CacheHits != len(want) || got.Failed != nFailed {
				t.Fatalf("batch has %d cells, %d hits, %d failed; want %d, %d, %d",
					len(got.Cells), got.CacheHits, got.Failed, tc.cells, len(want), nFailed)
			}
			for i, w := range want {
				if !reflect.DeepEqual(got.Cells[i], w) {
					t.Fatalf("cell %d decodes to\n%+v\nwant the stored\n%+v", i, got.Cells[i], w)
				}
			}
			// The reference envelope is built here, not decoded from the body
			// under test; only the fresh cells' results come from it.
			ref := api.BatchResponse{Cells: got.Cells, CacheHits: len(want), Failed: nFailed}
			if enc := encoderBytes(t, ref); !bytes.Equal(rec.Body.Bytes(), enc) {
				t.Fatalf("batch body differs from the encoder's output for the same response:\n%s", firstDiff(rec.Body.Bytes(), enc))
			}
			for i, w := range want {
				one, err := json.Marshal(api.SimRequest{Workload: req.Workloads[i], Technique: "ooo"})
				if err != nil {
					t.Fatal(err)
				}
				rec := serve(h, http.MethodPost, "/v1/sim", one)
				if enc := encoderBytes(t, w); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), enc) {
					t.Fatalf("/v1/sim hit of cell %d: status %d, body differs from the encoder's:\n%s",
						i, rec.Code, firstDiff(rec.Body.Bytes(), enc))
				}
			}
		})
	}
}

// TestBatchEnvelopeCoversResponse: encodeBatch writes api.BatchResponse's
// envelope by hand, so a field added to the struct must be added there (or,
// like job_id and deduped, be one a synchronous batch never carries) before
// this list is extended.
func TestBatchEnvelopeCoversResponse(t *testing.T) {
	written := []string{"cells,omitempty", "cache_hits", "failed,omitempty"}
	neverSet := []string{"job_id,omitempty", "deduped,omitempty"} // async and frontend answers: writeJSON
	var tags []string
	typ := reflect.TypeOf(api.BatchResponse{})
	for i := 0; i < typ.NumField(); i++ {
		tags = append(tags, typ.Field(i).Tag.Get("json"))
	}
	want := []string{neverSet[0], written[0], written[1], written[2], neverSet[1]}
	if !reflect.DeepEqual(tags, want) {
		t.Fatalf("api.BatchResponse fields are now %q; encodeBatch was written for %q", tags, want)
	}
	body, err := encodeBatch([]api.SimResponse{{Key: "k"}}, [][]byte{nil}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if enc := encoderBytes(t, api.BatchResponse{Cells: []api.SimResponse{{Key: "k"}}, Failed: 1}); !bytes.Equal(body, enc) {
		t.Errorf("envelope differs from the encoder's:\n%s", firstDiff(body, enc))
	}
}

// firstDiff shows two bodies around the first byte they differ at.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	clip := func(b []byte) string { return string(b[max(0, i-80):min(len(b), i+80)]) }
	return fmt.Sprintf("at byte %d of %d/%d\n got: %q\nwant: %q", i, len(got), len(want), clip(got), clip(want))
}

// TestCacheKeyMatchesMarshalledPayload: a request computes its cells'
// content addresses field by field (simConfig.key, the config marshalled
// once per request), and each must be the address CacheKey defines: the
// SHA-256 of the payload struct as encoding/json marshals it, which is how
// every key on disk and in the wire goldens was made.
func TestCacheKeyMatchesMarshalledPayload(t *testing.T) {
	small := cpu.DefaultConfig()
	small.ROBSize = 128
	small.Bpred.HistLengths = []int{4, 8}
	for _, ref := range []workloads.Ref{loopRef(0), loopRef(12_345), graphRef(8_000),
		{Kernel: `we<ird>&"\`, ROI: 1}} {
		for _, tech := range []string{"ooo", "dvr", `t<e>&"ch` + "\u2028"} {
			for _, cfg := range []*cpu.Config{nil, &small} {
				want := cpu.DefaultConfig()
				if cfg != nil {
					want = *cfg
				}
				sc, err := newSimConfig(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got, def := sc.key(ref, tech), CacheKey(ref, tech, want); got != def {
					t.Errorf("key of (%+v, %q, override=%v) = %s, CacheKey defines %s", ref, tech, cfg != nil, got, def)
				}
			}
		}
	}
}

// TestHitAfterEvictionServesSameBytes: an entry pushed out of memory and
// read back from its spill file is answered with the same bytes as before:
// the stored body is rebuilt on re-admission, not lost with the eviction.
func TestHitAfterEvictionServesSameBytes(t *testing.T) {
	srv := New(Config{CacheEntries: 1, CacheDir: t.TempDir()})
	defer shutdown(t, srv)
	h := srv.Handler()
	sim := func(roi uint64) *httptest.ResponseRecorder {
		body, err := json.Marshal(api.SimRequest{Workload: loopRef(roi), Technique: "ooo"})
		if err != nil {
			t.Fatal(err)
		}
		rec := serve(h, http.MethodPost, "/v1/sim", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("sim roi %d: status %d: %s", roi, rec.Code, rec.Body)
		}
		return rec
	}
	sim(2_000)
	first := sim(2_000).Body.Bytes()
	sim(2_001) // a one-entry memory: this evicts the first cell
	if n := srv.cache.Len(); n != 1 {
		t.Fatalf("cache holds %d entries in memory, want 1", n)
	}
	again := sim(2_000).Body.Bytes()
	var resp api.SimResponse
	if err := json.Unmarshal(again, &resp); err != nil || !resp.Cached {
		t.Fatalf("re-read cell: cached=%v err=%v", resp.Cached, err)
	}
	if !bytes.Equal(first, again) {
		t.Errorf("hit after eviction and spill re-read differs from the hit before:\n%s", firstDiff(again, first))
	}
	if got := srv.Metrics().SimsCompleted; got != 2 {
		t.Errorf("sims_completed = %d, want 2: the re-read must not re-simulate", got)
	}
}

// TestHitConcurrentWithPutAndEvict: hits on one key, from several
// goroutines, while another fills the cache past its capacity so the key
// is evicted and re-read from its spill again and again. Every answer is
// the same bytes (run under -race in CI).
func TestHitConcurrentWithPutAndEvict(t *testing.T) {
	srv := New(Config{CacheEntries: 4, CacheDir: t.TempDir()})
	defer shutdown(t, srv)
	h := srv.Handler()
	body, err := json.Marshal(api.SimRequest{Workload: loopRef(2_500), Technique: "ooo"})
	if err != nil {
		t.Fatal(err)
	}
	serve(h, http.MethodPost, "/v1/sim", body)
	want := serve(h, http.MethodPost, "/v1/sim", body).Body.Bytes()

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		res := cpu.Result{Name: "filler"}.Canonical()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				srv.cache.Put(fmt.Sprintf("%064x", i%16), res)
			}
		}
	}()
	var hitters sync.WaitGroup
	for g := 0; g < 4; g++ {
		hitters.Add(1)
		go func() {
			defer hitters.Done()
			for i := 0; i < 200; i++ {
				if rec := serve(h, http.MethodPost, "/v1/sim", body); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("hit %d: status %d, body differs from the first hit's", i, rec.Code)
					return
				}
			}
		}()
	}
	hitters.Wait()
	close(stop)
	churn.Wait()
	if got := srv.Metrics().SimsCompleted; got != 1 {
		t.Errorf("sims_completed = %d, want 1: an evicted entry is re-read, not re-simulated", got)
	}
}

// TestSimHitAllocCeiling: a /v1/sim cache hit through the whole handler
// stack stays under a fixed number of allocations. The count does not
// depend on the host, so it gates in tier-1 where a timing could not. The
// parent commit, which encoded the result per hit and formatted a log
// record nobody read, needed 70.
func TestSimHitAllocCeiling(t *testing.T) {
	batch := fig7Batch(t)
	h, body, _ := warmHandler(t, "/v1/sim", api.SimRequest{Workload: batch.Workloads[0], Technique: "dvr"})
	req := httptest.NewRequest(http.MethodPost, "/v1/sim", nil)
	rd := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		req.Body = readCloser{rd}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("hit: status %d", rec.Code)
		}
	})
	const ceiling = 62 // 54 measured; 59 under -race
	if allocs > ceiling {
		t.Errorf("a /v1/sim hit allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}

type readCloser struct{ *bytes.Reader }

func (readCloser) Close() error { return nil }

// frameIDs returns the id of every SSE frame in body, in order.
func frameIDs(t *testing.T, body string) []uint64 {
	t.Helper()
	var ids []uint64
	for _, line := range strings.Split(body, "\n") {
		var id uint64
		if n, _ := fmt.Sscanf(line, "id: %d", &id); n == 1 {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestStreamBurstFlushesOnce: events already queued when the subscriber
// attaches reach it in order with consecutive ids behind a single flush
// (the other is the response header's), not one flush per event; and
// once the queue is empty the stream still heartbeats.
func TestStreamBurstFlushesOnce(t *testing.T) {
	const events = 300
	srv := New(Config{Common: Common{StreamHeartbeat: 20 * time.Millisecond}})
	defer shutdown(t, srv)
	h := srv.Handler()

	done := queuedJob(t, srv, events)
	w := newFlushRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+done.id+"/stream", nil))
	body, flushes := w.snapshot()
	ids := frameIDs(t, body)
	if len(ids) != events+1 {
		t.Fatalf("finished job streamed %d frames, want %d", len(ids), events+1)
	}
	for i, id := range ids {
		if id != uint64(i+1) {
			t.Fatalf("frame %d has id %d, want %d", i, id, i+1)
		}
	}
	if !strings.Contains(body, "event: "+api.EventJobDone+"\n") {
		t.Error("stream ended without job-done")
	}
	if flushes > 2 {
		t.Errorf("%d queued events cost %d flushes, want at most 2", events+1, flushes)
	}

	// The same burst on a job that stays open: every frame, one flush,
	// then heartbeats for as long as nothing is published.
	open, _ := srv.jobs.create(1, "", srv.streams)
	for i := 0; i < events; i++ {
		open.bc.Publish(api.Event{Kind: api.EventInterval})
	}
	ctx, cancel := context.WithCancel(context.Background())
	lw := newFlushRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.ServeHTTP(lw, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+open.id+"/stream", nil).WithContext(ctx))
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		body, flushes := lw.snapshot()
		if hb := strings.Index(body, ": hb\n\n"); hb >= 0 {
			if got := len(frameIDs(t, body[:hb])); got != events {
				t.Errorf("%d frames before the first heartbeat, want %d", got, events)
			}
			// Header, the burst, and one per heartbeat so far.
			if maxFlushes := 2 + strings.Count(body, ": hb\n\n"); flushes > maxFlushes {
				t.Errorf("%d flushes for one burst and its heartbeats, want at most %d", flushes, maxFlushes)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat on an idle stream after a burst")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-served
}

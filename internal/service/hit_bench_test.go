package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dvr/internal/experiments"
	"dvr/internal/service/api"
	"dvr/internal/trace"
)

// The hit-path benchmarks drive s.Handler() through a ResponseRecorder: no
// sockets, so what they time is decode, content address, cache read and
// the response write, the part of a cache hit that is dvrd's own.

// fig7Batch is the quick Figure 7 in shape (13 kernels x 6 techniques, 78
// cells) on a scale-8 graph and a 2 000-instruction ROI, so filling the
// cache takes a moment and every response is as large as the real one.
func fig7Batch(tb testing.TB) api.BatchRequest {
	tb.Helper()
	refs, err := experiments.QuickSuite().Refs()
	if err != nil {
		tb.Fatal(err)
	}
	for i := range refs {
		refs[i].ROI = 2_000
		if refs[i].Graph != nil {
			g := *refs[i].Graph
			g.Scale = 8
			refs[i].Graph = &g
		}
	}
	return api.BatchRequest{Workloads: refs, Techniques: []string{"ooo", "pre", "imp", "vr", "dvr", "oracle"}}
}

// serve answers one request from h without a socket.
func serve(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// warmHandler returns the handler of a server whose cache already holds
// the answer to body, and that answer as a hit serves it.
func warmHandler(tb testing.TB, path string, req any) (http.Handler, []byte, []byte) {
	tb.Helper()
	srv := New(Config{})
	tb.Cleanup(func() { shutdown(tb, srv) })
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	h := srv.Handler()
	if rec := serve(h, http.MethodPost, path, body); rec.Code != http.StatusOK {
		tb.Fatalf("fill %s: status %d: %s", path, rec.Code, rec.Body)
	}
	hit := serve(h, http.MethodPost, path, body)
	if hit.Code != http.StatusOK {
		tb.Fatalf("hit %s: status %d: %s", path, hit.Code, hit.Body)
	}
	return h, body, hit.Body.Bytes()
}

func benchmarkHit(b *testing.B, path string, req any) {
	h, body, want := warmHandler(b, path, req)
	b.SetBytes(int64(len(want)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := serve(h, http.MethodPost, path, body)
		if rec.Code != http.StatusOK || rec.Body.Len() != len(want) {
			b.Fatalf("status %d, %d bytes; want 200, %d", rec.Code, rec.Body.Len(), len(want))
		}
	}
}

func BenchmarkSimHit(b *testing.B) {
	batch := fig7Batch(b)
	benchmarkHit(b, "/v1/sim", api.SimRequest{Workload: batch.Workloads[0], Technique: "dvr"})
}

func BenchmarkBatchHit78(b *testing.B) {
	benchmarkHit(b, "/v1/batch", fig7Batch(b))
}

// flushRecorder is a ResponseRecorder that counts Flush calls (one flush is
// one chunk on the wire, and one write syscall on a real connection) and
// whose body another goroutine may read while the handler writes.
type flushRecorder struct {
	mu      sync.Mutex
	rec     *httptest.ResponseRecorder
	flushes int
}

func newFlushRecorder() *flushRecorder { return &flushRecorder{rec: httptest.NewRecorder()} }

func (f *flushRecorder) Header() http.Header { return f.rec.Header() }

func (f *flushRecorder) WriteHeader(code int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rec.WriteHeader(code)
}

func (f *flushRecorder) Write(b []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rec.Write(b)
}

func (f *flushRecorder) Flush() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flushes++
}

// snapshot returns the body written and the flushes counted so far.
func (f *flushRecorder) snapshot() (string, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rec.Body.String(), f.flushes
}

// queuedJob registers a finished job whose stream holds n interval events
// and the terminal job-done, all published before any subscriber attached.
func queuedJob(tb testing.TB, srv *Server, n int) *job {
	tb.Helper()
	j, _ := srv.jobs.create(1, "", srv.streams)
	for i := 0; i < n; i++ {
		j.bc.Publish(api.Event{Kind: api.EventInterval, Bench: "svc-test-loop", Technique: "dvr",
			Interval: &trace.Interval{Index: i, StartInst: uint64(i) * 1000, EndInst: uint64(i+1) * 1000, IPC: 1.5}})
	}
	j.bc.Publish(api.Event{Kind: api.EventJobDone, Cell: -1, Done: 1, Total: 1})
	j.bc.Close()
	return j
}

// BenchmarkStreamBurst: one subscriber attaches to a job whose 1 000
// events are already queued, the shape of a relay that fell behind.
func BenchmarkStreamBurst(b *testing.B) {
	const events = 1000
	srv := New(Config{})
	b.Cleanup(func() { shutdown(b, srv) })
	j := queuedJob(b, srv, events)
	h := srv.Handler()
	path := "/v1/jobs/" + j.id + "/stream"
	flushes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := newFlushRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		body, n := w.snapshot()
		if got := strings.Count(body, "\nevent: "); got != events+1 {
			b.Fatalf("stream delivered %d events, want %d", got, events+1)
		}
		flushes += n
	}
	b.ReportMetric(float64(flushes)/float64(b.N), "flushes/op")
}

package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzDecodeSimRequest throws arbitrary bodies at the request-decoding
// path of /v1/sim and /v1/batch. The invariants: the handler never
// panics (a panic fails the fuzz run), malformed JSON is always a clean
// 400, and every response is one of the documented statuses. The tiny
// DefaultTimeout bounds the rare fuzz input that decodes into a real,
// runnable job.
func FuzzDecodeSimRequest(f *testing.F) {
	srv := New(Config{Workers: 1, Common: Common{DefaultTimeout: 50 * time.Millisecond}})
	handler := srv.Handler()
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	seeds := []string{
		``,
		`{}`,
		`null`,
		`[]`,
		`{"workload":{"kernel":"svc-test-loop","roi":1000},"technique":"ooo"}`,
		`{"workload":{"kernel":"bfs"},"technique":"dvr"}`,
		`{"workloads":[{"kernel":"nope"}],"techniques":["ooo"]}`,
		`{"workload":{"kernel":"svc-test-loop","roi":-1},"technique":"ooo"}`,
		`{"workload":{"kernel":"svc-test-loop","roi":1e999},"technique":"ooo"}`,
		"{\"workload\":{\"kernel\":\"\\u0000\"},\"technique\":\"\\uffff\"}",
		`{"workload":{"kernel":"svc-test-loop","graph":{"gen":"bogus"}},"technique":"ooo"}`,
		`{"timeout_ms":9223372036854775807,"technique":"ooo","workload":{"kernel":"svc-test-loop"}}`,
		`{"workload":{"kernel":"svc-test-loop"},"technique":"ooo","config":{"width":-4}}`,
		"{\"workload\":{\"kernel\":\"svc-test-loop\"},\"technique\":\"ooo\"}garbage",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	allowed := map[int]bool{
		http.StatusOK:                  true,
		http.StatusBadRequest:          true,
		http.StatusAccepted:            true, // async batches
		http.StatusTooManyRequests:     true,
		http.StatusInternalServerError: true,
		http.StatusServiceUnavailable:  true,
		http.StatusGatewayTimeout:      true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/sim", "/v1/batch"} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req) // a panic here fails the fuzz run
			if !allowed[rec.Code] {
				t.Fatalf("%s: unexpected status %d for body %q", path, rec.Code, body)
			}
		}
	})
}

package service

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"dvr/internal/service/api"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// numbered returns a snapshot of type T whose every number is distinct, so
// a series that reads the wrong field shows in its exposition.
func numbered[T any]() T {
	var out T
	v := reflect.ValueOf(&out).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(1000*(i+1) + 7))
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.25)
		}
	}
	return out
}

// fixedHistogram fills h with observations and one exemplar derived from
// seed, with a fixed timestamp so its exposition is deterministic.
func fixedHistogram(h *histogram, seed int) {
	for _, d := range []time.Duration{
		500 * time.Microsecond, 3 * time.Millisecond,
		time.Duration(seed) * 40 * time.Millisecond, 90 * time.Second,
	} {
		h.observeTraced(d, "")
	}
	h.ex = make([]exemplar, len(h.bounds)+1)
	h.ex[1] = exemplar{traceID: fmt.Sprintf("trace-%d", seed), val: 0.003, tsUS: 1_700_000_000_000_000 + int64(seed)}
}

func workerSnapshot() api.Metrics {
	m := numbered[api.Metrics]()
	m.StreamSessions = []api.StreamSession{
		{ID: "s-1", JobID: "job-1", Delivered: 11, Dropped: 2},
		{ID: "s-2", JobID: "job-2", Delivered: 13, Dropped: 0},
	}
	return m
}

func frontendSnapshot() api.ClusterMetrics {
	m := numbered[api.ClusterMetrics]()
	m.Role = "frontend"
	m.Replicas = []api.ReplicaStatus{
		{Name: "http://a:1", State: "up", ProbesTotal: 21, ProbeFailures: 1},
		{Name: "http://b:2", State: "dead", ProbesTotal: 23, ProbeFailures: 9},
	}
	return m
}

// renderWorker and renderFrontend build a role and return how it writes a
// fixed snapshot as Prometheus text, its histograms filled with fixed
// observations.
func renderWorker(t *testing.T) func(om bool) string {
	srv := New(Config{})
	t.Cleanup(func() { shutdown(t, srv) })
	fixedHistogram(srv.reqHist, 1)
	fixedHistogram(srv.queueHist, 2)
	return func(om bool) string {
		var b bytes.Buffer
		srv.expo.write(&b, workerSnapshot(), om)
		return b.String()
	}
}

func renderFrontend(t *testing.T) func(om bool) string {
	fe, err := NewFrontend(FrontendConfig{Replicas: []string{"http://127.0.0.1:1"}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fe.Shutdown(context.Background()) })
	fixedHistogram(fe.reqHist, 1)
	for i, o := range dispatchOutcomes {
		fixedHistogram(fe.dispatchHist[o], i+3)
	}
	return func(om bool) string {
		var b bytes.Buffer
		fe.expo.write(&b, frontendSnapshot(), om)
		return b.String()
	}
}

// families splits a text exposition into its families, each from its TYPE
// line to the next, sorted: the order of families is not part of the
// format, the order of lines within one is.
func families(text string) []string {
	var out []string
	for _, line := range strings.SplitAfter(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") || len(out) == 0 {
			out = append(out, "")
		}
		out[len(out)-1] += line
	}
	sort.Strings(out)
	return out
}

var exemplarTail = regexp.MustCompile(` # \{trace_id=[^\n]*`)

// TestExpositionGolden pins both roles' Prometheus text, exemplars
// included, family by family: the series, their types, labels and values
// for a snapshot whose every number is distinct. A plain-text scrape is
// the same text without exemplars, and names each family and each series
// once.
func TestExpositionGolden(t *testing.T) {
	for _, tc := range []struct {
		role   string
		render func(t *testing.T) func(om bool) string
	}{
		{"worker", renderWorker},
		{"frontend", renderFrontend},
	} {
		t.Run(tc.role, func(t *testing.T) {
			render := tc.render(t)
			om, plain := render(true), render(false)
			if plain != exemplarTail.ReplaceAllString(om, "") {
				t.Errorf("plain exposition is not the OpenMetrics one without exemplars:\n%s", plain)
			}
			seen := map[string]bool{}
			for _, line := range strings.Split(strings.TrimSpace(plain), "\n") {
				key := line[:strings.LastIndexByte(line, ' ')] // a family's TYPE line less its type, or a series less its value
				if seen[key] {
					t.Errorf("%q is written twice", key)
				}
				seen[key] = true
			}
			path := filepath.Join("testdata", "metrics_"+tc.role+".om")
			if *update {
				if err := os.WriteFile(path, []byte(om), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := families(om), families(string(want)); !reflect.DeepEqual(got, want) {
				t.Errorf("exposition differs from %s:\n got\n%s\nwant\n%s", path, strings.Join(got, ""), strings.Join(want, ""))
			}
		})
	}
}

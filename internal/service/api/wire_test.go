package api

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"dvr/internal/trace"
	"dvr/internal/workloads"
)

// TestWireCompat pins the JSON wire shape of every api-owned type to a
// golden form: an accidental field rename, tag typo, or dropped field
// fails here before any client notices. The golden strings are the
// contract — update them only for deliberate wire changes (and say so in
// the commit). Types embedding simulator-owned schemas (cpu.Result,
// cpu.Config) are pinned by key-set instead of full bytes so engine
// schema bumps do not churn this test.
func TestWireCompat(t *testing.T) {
	cell := 2
	cases := []struct {
		name   string
		value  any        // fully-populated wire value
		fresh  func() any // pointer to a zero value for the round trip
		golden string
	}{
		{
			name: "SimRequest",
			value: SimRequest{
				Workload:  workloads.Ref{Kernel: "bfs", ROI: 1000},
				Technique: "dvr",
				// Raw bytes decode verbatim: the value is the golden's
				// indented object, which marshals to the same golden.
				Sampling:  json.RawMessage("{\n    \"window_insts\": 2000,\n    \"warmup_insts\": 500,\n    \"max_phases\": 4,\n    \"replicates\": 2\n  }"),
				TimeoutMS: 1500,
			},
			fresh: func() any { return &SimRequest{} },
			golden: `{
  "workload": {
    "kernel": "bfs",
    "roi": 1000
  },
  "technique": "dvr",
  "sampling": {
    "window_insts": 2000,
    "warmup_insts": 500,
    "max_phases": 4,
    "replicates": 2
  },
  "timeout_ms": 1500
}`,
		},
		{
			name: "BatchRequest",
			value: BatchRequest{
				Workloads:  []workloads.Ref{{Kernel: "bfs", ROI: 1000}},
				Techniques: []string{"ooo", "dvr"},
				Async:      true,
				TimeoutMS:  2500,
			},
			fresh: func() any { return &BatchRequest{} },
			golden: `{
  "workloads": [
    {
      "kernel": "bfs",
      "roi": 1000
    }
  ],
  "techniques": [
    "ooo",
    "dvr"
  ],
  "async": true,
  "timeout_ms": 2500
}`,
		},
		{
			name:  "BatchResponse",
			value: BatchResponse{JobID: "job-1", CacheHits: 3, Failed: 1},
			fresh: func() any { return &BatchResponse{} },
			golden: `{
  "job_id": "job-1",
  "cache_hits": 3,
  "failed": 1
}`,
		},
		{
			name: "JobStatus",
			value: JobStatus{
				ID: "job-1", State: JobRunning, Done: 3, Total: 6,
				Intervals: 120, Subscribers: 2, Error: "boom",
			},
			fresh: func() any { return &JobStatus{} },
			golden: `{
  "id": "job-1",
  "state": "running",
  "done": 3,
  "total": 6,
  "intervals": 120,
  "subscribers": 2,
  "error": "boom"
}`,
		},
		{
			name: "Event",
			value: Event{
				ID: 7, Kind: EventInterval, JobID: "job-1", Cell: cell,
				Key: "abc123", Bench: "bfs", Technique: "dvr",
				Cached: true, Replayed: true, Error: "cell failed",
				Interval: &trace.Interval{Index: 1, StartInst: 100, EndInst: 200, StartCycle: 150, EndCycle: 400, MSHRHighWater: 5, IPC: 0.4, MLP: 2.5, PrefAccuracy: 0.8, PrefCoverage: 0.5, PrefTimeliness: 0.75, PrefLateFrac: 0.1, RunaheadOccupancy: 1.25, ROBStallFrac: 0.3},
				Episode:  &RunaheadEpisode{StartCycle: 10, EndCycle: 90, PC: 42, Lanes: 16, Reason: "stride"},
				Done:     3, Total: 6,
			},
			fresh: func() any { return &Event{} },
			golden: `{
  "id": 7,
  "kind": "interval",
  "job_id": "job-1",
  "cell": 2,
  "key": "abc123",
  "bench": "bfs",
  "technique": "dvr",
  "cached": true,
  "replayed": true,
  "error": "cell failed",
  "interval": {
    "index": 1,
    "start_inst": 100,
    "end_inst": 200,
    "start_cycle": 150,
    "end_cycle": 400,
    "delta": {
      "rob_stall_cycles": 0,
      "commit_hold_cycles": 0,
      "demand_accesses": 0,
      "demand_l1_hits": 0,
      "demand_dram": 0,
      "demand_merged": 0,
      "demand_miss_cycles": 0,
      "pref_issued": 0,
      "pref_useful": 0,
      "pref_useful_l1": 0,
      "pref_late": 0,
      "pref_unused_evict": 0,
      "mshr_busy_cycles": 0,
      "dram_accesses": 0,
      "runahead_episodes": 0,
      "runahead_prefetches": 0,
      "runahead_busy_cycles": 0,
      "vector_uops": 0
    },
    "mshr_high_water": 5,
    "ipc": 0.4,
    "mlp": 2.5,
    "pref_accuracy": 0.8,
    "pref_coverage": 0.5,
    "pref_timeliness": 0.75,
    "pref_late_frac": 0.1,
    "runahead_occupancy": 1.25,
    "rob_stall_frac": 0.3
  },
  "episode": {
    "start_cycle": 10,
    "end_cycle": 90,
    "pc": 42,
    "lanes": 16,
    "reason": "stride"
  },
  "done": 3,
  "total": 6
}`,
		},
		{
			name:  "StreamOptions",
			value: StreamOptions{Kinds: []string{EventInterval, EventJobDone}, Cell: &cell, LastEventID: 41},
			fresh: func() any { return &StreamOptions{} },
			golden: `{
  "kinds": [
    "interval",
    "job-done"
  ],
  "cell": 2,
  "last_event_id": 41
}`,
		},
		{
			name:  "Error",
			value: Error{Code: CodeNotFound, Error: "service: unknown job \"job-9\""},
			fresh: func() any { return &Error{} },
			golden: `{
  "code": "not_found",
  "error": "service: unknown job \"job-9\""
}`,
		},
		{
			name:  "StreamSession",
			value: StreamSession{ID: "sess-3", JobID: "job-1", Delivered: 40, Dropped: 2, AgeSeconds: 1.5},
			fresh: func() any { return &StreamSession{} },
			golden: `{
  "id": "sess-3",
  "job_id": "job-1",
  "delivered": 40,
  "dropped": 2,
  "age_seconds": 1.5
}`,
		},
		{
			name: "JobTrace",
			value: JobTrace{
				JobID: "job-1", IntervalInsts: 1000,
				Cells: []CellTrace{{Key: "abc", Bench: "bfs", Technique: "dvr", Missing: true}},
			},
			fresh: func() any { return &JobTrace{} },
			golden: `{
  "job_id": "job-1",
  "interval_insts": 1000,
  "cells": [
    {
      "key": "abc",
      "bench": "bfs",
      "technique": "dvr",
      "missing": true
    }
  ]
}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := json.MarshalIndent(tc.value, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.golden {
				t.Errorf("wire shape drifted from golden:\ngot:\n%s\nwant:\n%s", got, tc.golden)
			}
			// Round trip: the golden form must decode back to the value
			// it was produced from (no lossy or misrouted tags).
			out := tc.fresh()
			if err := json.Unmarshal([]byte(tc.golden), out); err != nil {
				t.Fatalf("golden does not decode: %v", err)
			}
			if !reflect.DeepEqual(reflect.ValueOf(out).Elem().Interface(), tc.value) {
				t.Errorf("round trip mismatch:\ngot:  %+v\nwant: %+v", reflect.ValueOf(out).Elem().Interface(), tc.value)
			}
		})
	}
}

// TestWireCompatKeySets pins the top-level JSON key sets of the wire types
// whose bodies embed simulator-owned schemas (cpu.Result in SimResponse,
// the counter blocks in Metrics). Engine schema bumps may change what is
// inside those fields, but the api-owned envelope must not drift silently.
func TestWireCompatKeySets(t *testing.T) {
	keysOf := func(v any) []string {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	if got, want := keysOf(SimResponse{Error: &Error{}}), []string{"cached", "error", "key", "result"}; !reflect.DeepEqual(got, want) {
		t.Errorf("SimResponse keys = %v, want %v", got, want)
	}
	wantMetrics := []string{
		"busy_workers", "cache_entries", "cache_hit_rate", "cache_hits", "cache_misses",
		"checkpoint_write_errors", "checkpoints_quarantined", "checkpoints_resumed", "checkpoints_written",
		"deadline_rejected", "idempotent_hits",
		"jobs_active", "jobs_done", "obs_spans", "obs_spans_dropped",
		"panics_recovered", "queue_depth", "requests_total",
		"shed_total", "sim_instructions", "sim_mips", "sims_completed", "single_flight_retries", "single_flight_shared",
		"spill_quarantined", "stream_events_dropped", "stream_events_published", "stream_sessions_active",
		"stream_sessions_opened", "traces_stored", "uptime_seconds",
		"watchdog_trips", "workers",
	}
	if got := keysOf(Metrics{}); !reflect.DeepEqual(got, wantMetrics) {
		t.Errorf("Metrics keys = %v, want %v", got, wantMetrics)
	}
}

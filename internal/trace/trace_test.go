package trace_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"dvr/internal/mem"
	"dvr/internal/trace"
)

// TestNilRecorderIsSafe: a nil *Recorder is the disabled tracer — every
// method must be callable and inert.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *trace.Recorder
	r.Emit(trace.EvRunaheadSpawn, 1, 2, 3, 4, 5)
	r.MSHROccupancy(1, 9)
	r.AddInterval(0, 10, 0, 20, trace.Counters{PrefIssued: 1})
	if r.Events() != nil {
		t.Error("nil recorder returned events")
	}
	if r.Dropped() != 0 {
		t.Error("nil recorder reported drops")
	}
	if r.Intervals() != nil {
		t.Error("nil recorder returned intervals")
	}
	if r.IntervalEvery() != 0 {
		t.Error("nil recorder reported a cadence")
	}
	if r.MSHRHighWater() != 0 {
		t.Error("nil recorder reported a high water")
	}
	if err := r.WritePerfetto(&bytes.Buffer{}, "nil"); err != nil {
		t.Errorf("nil WritePerfetto: %v", err)
	}
}

func TestRingWrapAndDropped(t *testing.T) {
	r := trace.New(trace.Config{Events: 4})
	for i := 0; i < 10; i++ {
		r.Emit(trace.EvReconverge, uint64(i), 0, i, 0, 0)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want ring capacity 4", len(evs))
	}
	// Oldest-first: the survivors are emissions 6..9.
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Cycle != want {
			t.Errorf("event %d: cycle %d, want %d", i, ev.Cycle, want)
		}
	}
	if got := r.Dropped(); got != 6 {
		t.Errorf("Dropped() = %d, want 6", got)
	}
}

func TestIntervalsMath(t *testing.T) {
	r := trace.New(trace.Config{IntervalEvery: 100})
	r.MSHROccupancy(50, 7)
	r.AddInterval(0, 100, 0, 200, trace.Counters{
		ROBStallCycles: 50, MSHRBusyCycles: 400,
		PrefIssued: 10, PrefUseful: 8, PrefUsefulL1: 6, PrefLate: 2,
		DemandDRAM: 2, RunaheadBusyCycles: 100,
	})
	ivs := r.Intervals()
	if len(ivs) != 1 {
		t.Fatalf("got %d intervals, want 1", len(ivs))
	}
	iv := ivs[0]
	if iv.StartInst != 0 || iv.EndInst != 100 || iv.EndCycle != 200 {
		t.Fatalf("bad bounds: %+v", iv)
	}
	check := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("IPC", iv.IPC, 0.5)
	check("MLP", iv.MLP, 2.0)
	check("PrefAccuracy", iv.PrefAccuracy, 0.8)
	check("PrefCoverage", iv.PrefCoverage, 0.8) // 8 / (8 + 2)
	check("PrefTimeliness", iv.PrefTimeliness, 0.75)
	check("PrefLateFrac", iv.PrefLateFrac, 0.2)
	check("RunaheadOccupancy", iv.RunaheadOccupancy, 0.5)
	check("ROBStallFrac", iv.ROBStallFrac, 0.25)
	if iv.MSHRHighWater != 7 {
		t.Errorf("MSHRHighWater = %d, want 7", iv.MSHRHighWater)
	}
}

func TestIntervalsZeroDenominators(t *testing.T) {
	r := trace.New(trace.Config{IntervalEvery: 10})
	r.AddInterval(0, 10, 0, 10, trace.Counters{})
	ivs := r.Intervals()
	if len(ivs) != 1 {
		t.Fatalf("got %d intervals, want 1", len(ivs))
	}
	iv := ivs[0]
	for name, v := range map[string]float64{
		"PrefAccuracy": iv.PrefAccuracy, "PrefCoverage": iv.PrefCoverage,
		"PrefTimeliness": iv.PrefTimeliness, "PrefLateFrac": iv.PrefLateFrac,
	} {
		if v != 0 {
			t.Errorf("%s = %v with zero denominator, want 0", name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s is %v", name, v)
		}
	}
}

// TestLiveHooksMatchPostHoc: the OnInterval hook must deliver exactly the
// series Intervals() later returns (same values, same order), and OnEvent
// must see every emission — including with no event ring configured, which
// is how the dvrd stream layer watches runahead episodes without paying
// for retention.
func TestLiveHooksMatchPostHoc(t *testing.T) {
	var (
		live   []trace.Interval
		events []trace.Event
	)
	r := trace.New(trace.Config{
		IntervalEvery: 100,
		OnInterval:    func(iv trace.Interval) { live = append(live, iv) },
		OnEvent:       func(ev trace.Event) { events = append(events, ev) },
	})
	r.Emit(trace.EvRunaheadSpawn, 10, 50, 3, 16, trace.ReasonStride)
	r.MSHROccupancy(20, 4)
	r.AddInterval(0, 100, 0, 200, trace.Counters{PrefIssued: 4, PrefUseful: 2})
	r.AddInterval(100, 250, 200, 500, trace.Counters{PrefIssued: 5, PrefUseful: 5})

	post := r.Intervals()
	if len(live) != len(post) || len(post) != 2 {
		t.Fatalf("live %d vs post-hoc %d intervals, want 2", len(live), len(post))
	}
	for i := range post {
		if live[i] != post[i] {
			t.Errorf("interval %d differs:\nlive: %+v\npost: %+v", i, live[i], post[i])
		}
	}
	// Two explicit emissions reach the hook (the spawn and the MSHR
	// high-water event) even though Events=0 keeps no ring.
	if len(events) != 2 {
		t.Fatalf("OnEvent saw %d events, want 2: %+v", len(events), events)
	}
	if events[0].Kind != trace.EvRunaheadSpawn || events[1].Kind != trace.EvMSHRHighWater {
		t.Errorf("unexpected event kinds: %+v", events)
	}
	if r.Events() != nil {
		t.Error("ringless recorder retained events")
	}
}

// fillRecorder emits one event of every kind plus occupancy and an
// interval.
func fillRecorder() *trace.Recorder {
	r := trace.New(trace.Config{Events: 64, IntervalEvery: 100})
	r.Emit(trace.EvRunaheadSpawn, 10, 50, 3, 16, trace.ReasonStride)
	r.Emit(trace.EvRunaheadEnd, 50, 0, 3, 16, trace.ReasonStride)
	r.Emit(trace.EvDiscoveryStart, 12, 0, 4, 0, 0)
	r.Emit(trace.EvDiscoveryEnd, 20, 0, 4, 8, 1)
	r.Emit(trace.EvNestedSpawn, 25, 0, 5, 8, 0)
	r.Emit(trace.EvVectorBatch, 26, 40, 5, 8, 0)
	r.Emit(trace.EvReconverge, 41, 0, 6, 4, 0)
	r.Emit(trace.EvROBStall, 15, 30, 7, 0, 0)
	r.Emit(trace.EvCommitHold, 31, 35, 7, 0, 0)
	r.Emit(trace.EvPrefetchIssue, 11, 60, -1, 2, 3)
	r.Emit(trace.EvPrefetchLate, 55, 0, -1, 2, 0)
	r.Emit(trace.EvPrefetchUseless, 70, 0, -1, 2, 0)
	r.Emit(trace.EvPatternConfirm, 33, 0, 9, 4, 0)
	r.MSHROccupancy(12, 5)
	r.AddInterval(0, 100, 0, 80, trace.Counters{PrefIssued: 1})
	return r
}

// TestPerfettoByteStableAndValid: identical recordings must render to
// identical bytes, the output must be valid JSON, and the runahead
// subthread must be named as its own track.
func TestPerfettoByteStableAndValid(t *testing.T) {
	var a, b bytes.Buffer
	if err := fillRecorder().WritePerfetto(&a, "bench (dvr)"); err != nil {
		t.Fatal(err)
	}
	if err := fillRecorder().WritePerfetto(&b, "bench (dvr)"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical recordings rendered different Perfetto bytes")
	}
	if !json.Valid(a.Bytes()) {
		t.Fatalf("Perfetto output is not valid JSON:\n%s", a.String())
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	foundRunaheadTrack, foundEpisode := false, false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Args["name"] == "runahead subthread" {
			foundRunaheadTrack = true
		}
		if ev.Name == "runahead-episode" && ev.Ph == "X" {
			foundEpisode = true
		}
	}
	if !foundRunaheadTrack {
		t.Error("no runahead-subthread track metadata")
	}
	if !foundEpisode {
		t.Error("no runahead-episode span")
	}
}

func TestIntervalsCSVByteStable(t *testing.T) {
	var a, b bytes.Buffer
	if err := trace.WriteIntervalsCSV(&a, fillRecorder().Intervals()); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteIntervalsCSV(&b, fillRecorder().Intervals()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical interval series rendered different CSV bytes")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d CSV lines, want header + 1 row:\n%s", len(lines), a.String())
	}
	header := strings.Split(lines[0], ",")
	row := strings.Split(lines[1], ",")
	if len(header) != len(row) {
		t.Errorf("header has %d columns, row has %d", len(header), len(row))
	}
}

func TestDumpJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := trace.Dump{Bench: "bfs", Technique: "dvr", IntervalInsts: 100, Intervals: fillRecorder().Intervals()}
	if err := trace.WriteDumpJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out trace.Dump
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Bench != in.Bench || out.Technique != in.Technique || len(out.Intervals) != len(in.Intervals) {
		t.Errorf("round trip mismatch: %+v", out)
	}
}

// TestSourceNamesMatchMem pins trace's source-name table to mem.Source
// numbering (trace cannot import mem, so the mirror is asserted here).
func TestSourceNamesMatchMem(t *testing.T) {
	want := map[mem.Source]string{
		mem.SrcDemand:   "demand",
		mem.SrcStridePF: "stride-pf",
		mem.SrcRunahead: "runahead",
		mem.SrcIMP:      "imp",
		mem.SrcOracle:   "oracle",
	}
	if len(want) != trace.NumSources {
		t.Fatalf("trace.NumSources = %d, mem has %d sources", trace.NumSources, len(want))
	}
	for src, name := range want {
		if got := trace.SourceString(uint64(src)); got != name {
			t.Errorf("SourceString(%d) = %q, want %q", src, got, name)
		}
	}
}

func TestMSHRHighWaterEvents(t *testing.T) {
	r := trace.New(trace.Config{Events: 16})
	r.MSHROccupancy(1, 3)
	r.MSHROccupancy(2, 2) // below high water: no event
	r.MSHROccupancy(3, 5)
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d high-water events, want 2", len(evs))
	}
	if evs[0].Arg != 3 || evs[1].Arg != 5 {
		t.Errorf("high-water marks %d, %d; want 3, 5", evs[0].Arg, evs[1].Arg)
	}
	if r.MSHRHighWater() != 5 {
		t.Errorf("MSHRHighWater = %d, want 5", r.MSHRHighWater())
	}
}

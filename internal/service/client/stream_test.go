package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"dvr/internal/service/api"
	"dvr/internal/trace"
)

// refReadEvent is the frame reader the client had before it read lines in
// place (ReadString, a strings.Builder, one Unmarshal per frame): the
// reference TestStreamFrameReader holds the reader to.
func refReadEvent(br *bufio.Reader) (api.Event, error) {
	var data strings.Builder
	sawData := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return api.Event{}, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if !sawData {
				continue
			}
			var ev api.Event
			if err := json.Unmarshal([]byte(data.String()), &ev); err != nil {
				return api.Event{}, fmt.Errorf("client: bad stream frame: %w", err)
			}
			return ev, nil
		case strings.HasPrefix(line, ":"):
		case strings.HasPrefix(line, "data:"):
			if sawData {
				data.WriteByte('\n')
			}
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
			sawData = true
		}
	}
}

// whole decodes a relayed event in full: its head fields put back in
// front of its tail.
func whole(t *testing.T, ev api.Event) api.Event {
	t.Helper()
	if ev.Tail == nil {
		return ev
	}
	data := fmt.Sprintf(`{"id":%d,"kind":%q,"job_id":%q,"cell":%d,"key":%q,"bench":%q,"technique":%q`,
		ev.ID, ev.Kind, ev.JobID, ev.Cell, ev.Key, ev.Bench, ev.Technique)
	var out api.Event
	if err := json.Unmarshal(append([]byte(data), ev.Tail...), &out); err != nil {
		t.Fatalf("relayed tail %q does not complete its head: %v", ev.Tail, err)
	}
	return out
}

// TestStreamFrameReader: Next and NextRelay read the same events from the
// same bytes as the reference reader: a data line longer than the read
// buffer, data split over several lines, CRLF line ends, comment-only
// frames, and field lines the body duplicates. NextRelay hands back a
// cell-done or job-done decoded in full, and telemetry in encoding/json's
// form with its payload as bytes that complete its head to the same event.
func TestStreamFrameReader(t *testing.T) {
	long := strings.Repeat("episode ", 1500) // 12 000 bytes, three read buffers
	iv := &trace.Interval{Index: 2, StartInst: 10_000, EndInst: 15_000, IPC: 0.75, MLP: 2.5}
	frame := func(ev api.Event) string {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Kind, data)
	}
	var body strings.Builder
	body.WriteString(": hb\n\n")
	body.WriteString(frame(api.Event{ID: 1, Kind: api.EventCellStarted, JobID: "job-1", Key: "k0", Bench: "bfs", Technique: "dvr"}))
	body.WriteString(frame(api.Event{ID: 2, Kind: api.EventInterval, JobID: "job-1", Key: "k0", Bench: "bfs", Technique: "dvr", Interval: iv}))
	body.WriteString(": hb\n: second comment line\n\n")
	body.WriteString(frame(api.Event{ID: 3, Kind: api.EventRunahead, JobID: "job-1", Key: "k0", Bench: "bfs", Technique: "dvr",
		Episode: &api.RunaheadEpisode{StartCycle: 10, EndCycle: 90, PC: 4, Lanes: 8, Reason: long}}))
	// The same telemetry with CRLF line ends and no space after "data:".
	crlf := strings.ReplaceAll(frame(api.Event{ID: 4, Kind: api.EventInterval, JobID: "job-1", Cell: 1, Key: "k1", Replayed: true, Interval: iv}), "\n", "\r\n")
	body.WriteString(strings.Replace(crlf, "data: ", "data:", 1))
	// One event's JSON over three data lines, broken between members.
	split, _ := json.Marshal(api.Event{ID: 5, Kind: api.EventInterval, JobID: "job-1", Cell: 1, Key: "k1", Interval: iv})
	s := string(split)
	a, b := strings.Index(s, `,"job_id"`), strings.Index(s, `,"interval"`)
	body.WriteString("id: 5\nevent: interval\ndata: " + s[:a] + "\ndata: " + s[a:b] + "\ndata:" + s[b:] + "\n\n")
	body.WriteString(frame(api.Event{ID: 6, Kind: api.EventCellDone, JobID: "job-1", Cell: 0, Key: "k0", Done: 1, Total: 2, Error: long}))
	body.WriteString(frame(api.Event{ID: 7, Kind: api.EventJobDone, JobID: "job-1", Cell: -1, Done: 2, Total: 2}))

	var want []api.Event
	br := bufio.NewReader(strings.NewReader(body.String()))
	for {
		ev, err := refReadEvent(br)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, ev)
	}
	if len(want) != 7 {
		t.Fatalf("reference reader found %d events, want 7", len(want))
	}

	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, body.String())
	}))
	defer ts.Close()
	for _, relay := range []bool{false, true} {
		st := New(ts.URL, WithRetryPolicy(fastPolicy())).Stream(context.Background(), "job-1", api.StreamOptions{})
		var got []api.Event
		var spliced []uint64
		for {
			next := st.Next
			if relay {
				next = st.NextRelay
			}
			ev, err := next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("relay=%v: %v after %d events", relay, err, len(got))
			}
			if terminal := ev.Kind == api.EventCellDone || ev.Kind == api.EventJobDone; ev.Tail != nil && (terminal || !relay) {
				t.Errorf("relay=%v: event %d (%s) kept bytes undecoded", relay, ev.ID, ev.Kind)
			}
			if ev.Tail != nil {
				spliced = append(spliced, ev.ID)
			}
			got = append(got, whole(t, ev))
		}
		st.Close()
		// Frames 1-4 are telemetry as encoding/json writes it; frame 5
		// has newlines between its members.
		if wantSpliced := map[bool]string{false: "[]", true: "[1 2 3 4]"}[relay]; fmt.Sprint(spliced) != wantSpliced {
			t.Errorf("relay=%v: events %v kept their payload as bytes, want %s", relay, spliced, wantSpliced)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("relay=%v: read\n%+v\nwant\n%+v", relay, got, want)
		}
	}
}

// TestSplitHeadRefusesBrokenTails: a frame whose head is in form but
// whose tail is not closed, or closes early, or is not the members a
// relay may forward, is not kept as bytes; the full decode then reports
// it as a bad frame, as Next does.
func TestSplitHeadRefusesBrokenTails(t *testing.T) {
	const head = `{"id":1,"kind":"interval","job_id":"job-1","cell":0`
	for _, tc := range []struct {
		tail string
		ok   bool
	}{
		{`}`, true},
		{`,"cached":true,"interval":{"index":1,"ipc":0.5}}`, true},
		{`,"error":"a \"quoted\" }"}`, true},
		{``, false},
		{`,"interval":{"index":1}`, false},
		{`,"interval":{"index":1}}}`, false},
		{`,"interval":{"index":1}]`, false},
		{`,"error":"open}`, false},
		{`,"interval":{"index":1}},"x":1}`, false},
		{`,"unknown":1}`, false},
		{`,"done":1,"total":2}`, false},
	} {
		_, tail, ok := splitHead([]byte(head + tc.tail))
		if ok != tc.ok || ok && string(tail) != tc.tail {
			t.Errorf("tail %q: kept as bytes %v (%q), want %v", tc.tail, ok, tail, tc.ok)
		}
	}
}

package ledger

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dvr/internal/sealed"
	"dvr/internal/service/api"
	"dvr/internal/workloads"
)

func testRequest() *api.BatchRequest {
	return &api.BatchRequest{
		Workloads:  []workloads.Ref{{Kernel: "camel"}},
		Techniques: []string{"ooo", "dvr"},
		Async:      true,
	}
}

func journalOf(recs ...Record) []byte {
	var buf []byte
	for _, rec := range recs {
		data, err := Encode(rec)
		if err != nil {
			panic(err)
		}
		buf = append(buf, data...)
	}
	return buf
}

func TestJournalRoundTrip(t *testing.T) {
	want := []Record{
		{V: Version, Kind: KindAccepted, JobID: "job-1", Key: "idem-1", Total: 2, Request: testRequest()},
		{V: Version, Kind: KindRecovered, JobID: "job-1"},
		{V: Version, Kind: KindHedge, JobID: "job-1", CellKey: "abc", Winner: "http://b", Loser: "http://a"},
		{V: Version, Kind: KindDone, JobID: "job-1", Batch: &api.BatchResponse{CacheHits: 1}},
	}
	got, torn, err := DecodeJournal(journalOf(want...))
	if err != nil || torn != 0 {
		t.Fatalf("DecodeJournal: torn=%d err=%v", torn, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeJournalTornTail(t *testing.T) {
	full := journalOf(
		Record{Kind: KindAccepted, JobID: "job-1", Total: 1},
		Record{Kind: KindDone, JobID: "job-1"},
	)
	one := journalOf(Record{Kind: KindAccepted, JobID: "job-1", Total: 1})
	// Every truncation point that cuts into the second record must decode
	// to exactly the first record with a torn tail — never an error, never
	// a partial second record.
	for cut := len(one) + 1; cut < len(full); cut++ {
		recs, torn, err := DecodeJournal(full[:cut])
		if err != nil {
			t.Fatalf("cut %d: err = %v, want torn tail", cut, err)
		}
		if torn != 1 || len(recs) != 1 || recs[0].Kind != KindAccepted {
			t.Fatalf("cut %d: recs=%d torn=%d, want 1 record + torn", cut, len(recs), torn)
		}
	}
}

func TestDecodeJournalMidFileCorruption(t *testing.T) {
	data := journalOf(
		Record{Kind: KindAccepted, JobID: "job-1", Total: 1},
		Record{Kind: KindDone, JobID: "job-1"},
	)
	// Flip a byte inside the first record's payload: corruption with
	// intact records after it — quarantine territory, not a torn tail.
	mut := bytes.Clone(data)
	mut[5] ^= 0xff
	if _, _, err := DecodeJournal(mut); !errors.Is(err, sealed.ErrCorrupt) {
		t.Errorf("mid-file corruption: err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeJournalVersionSkew(t *testing.T) {
	data := journalOf(Record{Kind: KindAccepted, JobID: "job-1"})
	skew := bytes.Replace(data, []byte(`{"v":1,`), []byte(`{"v":9,`), 1)
	// Re-seal: the payload changed, so rebuild the record from scratch.
	payload := skew[:bytes.IndexByte(skew, '\n')]
	if _, _, err := DecodeJournal(sealed.Seal(payload)); !errors.Is(err, ErrVersion) {
		t.Errorf("version skew: err = %v, want ErrVersion", err)
	}
	_ = data
}

func TestStoreAppendLoadRepair(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("job-1", Record{Kind: KindAccepted, JobID: "job-1", Key: "k", Total: 1, Request: testRequest()}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("job-1", Record{Kind: KindDone, JobID: "job-1"}); err != nil {
		t.Fatal(err)
	}
	// Tear the tail by hand: chop bytes off the final record.
	path := s.Path("job-1")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := s.Load("job-1")
	if err != nil {
		t.Fatalf("Load torn journal: %v", err)
	}
	if len(recs) != 1 || recs[0].Kind != KindAccepted {
		t.Fatalf("Load torn journal: recs = %+v, want just accepted", recs)
	}
	if s.TornRepaired() != 1 {
		t.Errorf("TornRepaired = %d, want 1", s.TornRepaired())
	}
	// The repair rewrote the file: a fresh load sees a clean journal and
	// a fresh append extends it without tripping over the old tear.
	if err := s.Append("job-1", Record{Kind: KindDone, JobID: "job-1"}); err != nil {
		t.Fatal(err)
	}
	recs, err = s.Load("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Kind != KindDone {
		t.Fatalf("post-repair journal: recs = %+v, want accepted+done", recs)
	}
}

func TestStoreQuarantineAndScan(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	// job-1: pending with one recovery. job-2: completed. job-3: corrupt.
	// A side journal of hedge records must not be scanned as a job.
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Append("job-1", Record{Kind: KindAccepted, JobID: "job-1", Key: "idem-1", Total: 2, Request: testRequest()}))
	must(s.Append("job-1", Record{Kind: KindRecovered, JobID: "job-1"}))
	must(s.Append("job-2", Record{Kind: KindAccepted, JobID: "job-2", Total: 1, Request: testRequest()}))
	must(s.Append("job-2", Record{Kind: KindDone, JobID: "job-2", Batch: &api.BatchResponse{}}))
	must(s.Append("job-3", Record{Kind: KindAccepted, JobID: "job-3", Total: 1}))
	must(s.Append("job-3", Record{Kind: KindDone, JobID: "job-3"}))
	must(s.AppendSide("hedges", Record{Kind: KindHedge, CellKey: "abc", Winner: "b", Loser: "a"}))
	// Corrupt job-3 mid-file (flip a byte in the first record).
	path := s.Path("job-3")
	data, err := os.ReadFile(path)
	must(err)
	data[5] ^= 0xff
	must(os.WriteFile(path, data, 0o644))

	h := s.Scan()
	if h.Scanned != 3 || h.Healthy != 2 || h.Quarantined != 1 || h.Dropped != 0 {
		t.Fatalf("Scan = %+v, want scanned=3 healthy=2 quarantined=1", h)
	}
	if len(h.Pending) != 1 || h.Pending[0].ID != "job-1" || h.Pending[0].Recoveries != 1 {
		t.Errorf("Pending = %+v, want job-1 with 1 recovery", h.Pending)
	}
	if h.Pending[0].Accepted == nil || h.Pending[0].Accepted.Key != "idem-1" {
		t.Errorf("Pending accepted record = %+v, want idempotency key idem-1", h.Pending[0].Accepted)
	}
	if len(h.Completed) != 1 || h.Completed[0].ID != "job-2" || h.Completed[0].Done == nil {
		t.Errorf("Completed = %+v, want job-2 done", h.Completed)
	}
	if s.Quarantined() != 1 {
		t.Errorf("Quarantined = %d, want 1", s.Quarantined())
	}
	// The corrupt journal moved to quarantine/ and is gone from the dir.
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("corrupt journal still present: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "job-3"+Ext)); err != nil {
		t.Errorf("quarantined journal missing: %v", err)
	}
}

func FuzzDecodeLedger(f *testing.F) {
	f.Add([]byte{})
	f.Add(journalOf(Record{Kind: KindAccepted, JobID: "job-1", Key: "k", Total: 2, Request: testRequest()}))
	f.Add(journalOf(
		Record{Kind: KindAccepted, JobID: "job-1", Total: 1},
		Record{Kind: KindHedge, JobID: "job-1", CellKey: "c", Winner: "w", Loser: "l"},
		Record{Kind: KindDone, JobID: "job-1"},
	))
	f.Add([]byte("{\"v\":1}\n# sha256:deadbeef\n"))
	f.Add([]byte("no newline at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, torn, err := DecodeJournal(data)
		if err != nil {
			if !errors.Is(err, sealed.ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("DecodeJournal error outside the taxonomy: %v", err)
			}
			return
		}
		if torn < 0 || torn > 1 {
			t.Fatalf("torn = %d, want 0 or 1", torn)
		}
		// Whatever decoded cleanly must re-encode to a journal that
		// decodes to the same records — the repair path depends on it.
		var buf []byte
		for _, rec := range recs {
			out, eerr := Encode(rec)
			if eerr != nil {
				t.Fatalf("re-encode decoded record: %v", eerr)
			}
			buf = append(buf, out...)
		}
		again, torn2, err2 := DecodeJournal(buf)
		if err2 != nil || torn2 != 0 {
			t.Fatalf("re-decode: torn=%d err=%v", torn2, err2)
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("re-decode mismatch:\n got %+v\nwant %+v", again, recs)
		}
	})
}

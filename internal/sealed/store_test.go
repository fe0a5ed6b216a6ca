package sealed_test

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvr/internal/checkpoint"
	"dvr/internal/faults"
	"dvr/internal/ledger"
	"dvr/internal/sealed"
)

const ext = ".art"

var errOther = errors.New("codec: cannot tell yet")

// codec is a minimal whole-file codec: sealed payload, "v0" prefix is
// another format version, "??" prefix is an error outside the taxonomy.
func codec(data []byte) error {
	payload, err := sealed.Unseal(data)
	switch {
	case err != nil:
		return err
	case bytes.HasPrefix(payload, []byte("v0")):
		return fmt.Errorf("test codec: %w", sealed.ErrSkew)
	case bytes.HasPrefix(payload, []byte("??")):
		return errOther
	}
	return nil
}

// hookFS adds the failures FaultyFS cannot script: WriteTemp failing to
// create its file, and Rename by destination.
type hookFS struct {
	faults.FS
	failCreateTemp bool
	failRenameTo   string // substring of the destination path
}

func (h *hookFS) WriteTemp(dir, pattern string, data []byte) (string, error) {
	if h.failCreateTemp {
		return "", faults.ErrInjected
	}
	return h.FS.WriteTemp(dir, pattern, data)
}

func (h *hookFS) Rename(oldpath, newpath string) error {
	if h.failRenameTo != "" && strings.Contains(newpath, h.failRenameTo) {
		return faults.ErrInjected
	}
	return h.FS.Rename(oldpath, newpath)
}

func exists(t *testing.T, path string) bool {
	t.Helper()
	_, err := os.Stat(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	return err == nil
}

func names(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

// TestStoreVerdicts drives every verdict through both entry points (a
// read and the boot scan) over a FaultyFS, and checks what each leaves on
// disk, in the tallies, and for the next read.
func TestStoreVerdicts(t *testing.T) {
	good := sealed.Seal([]byte("v1 payload"))
	flipped := append([]byte(nil), good...)
	flipped[3] ^= 0xff
	cases := []struct {
		name        string
		data        []byte
		want        error // nil: healthy
		stays       bool
		quarantined bool
		health      sealed.Health
	}{
		{"healthy", good, nil, true, false, sealed.Health{Scanned: 1, Healthy: 1}},
		{"truncated", good[:len(good)/2], sealed.ErrCorrupt, false, true, sealed.Health{Scanned: 1, Quarantined: 1}},
		{"bit-flipped", flipped, sealed.ErrCorrupt, false, true, sealed.Health{Scanned: 1, Quarantined: 1}},
		{"missing footer", []byte("v1 payload\n"), sealed.ErrCorrupt, false, true, sealed.Health{Scanned: 1, Quarantined: 1}},
		{"empty", nil, sealed.ErrCorrupt, false, true, sealed.Health{Scanned: 1, Quarantined: 1}},
		{"skewed", sealed.Seal([]byte("v0 payload")), sealed.ErrSkew, false, false, sealed.Health{Scanned: 1, Dropped: 1}},
		{"undecided", sealed.Seal([]byte("?? payload")), errOther, true, false, sealed.Health{Scanned: 1}},
	}
	for _, c := range cases {
		for _, via := range []string{"get", "scan"} {
			t.Run(c.name+"/"+via, func(t *testing.T) {
				dir := t.TempDir()
				s, err := sealed.Open(dir, ext, faults.NewFaultyFS(nil, 1))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(s.Path("k"), c.data, 0o644); err != nil {
					t.Fatal(err)
				}
				// A file of another artifact kind is never touched.
				other := filepath.Join(dir, "k.other")
				if err := os.WriteFile(other, []byte("not ours"), 0o644); err != nil {
					t.Fatal(err)
				}
				if via == "get" {
					if err := s.Get("k", codec); !errors.Is(err, c.want) {
						t.Fatalf("Get = %v, want %v", err, c.want)
					}
				} else {
					var seen []string
					h := s.Scan(func(key string, data []byte) error {
						seen = append(seen, key)
						return codec(data)
					})
					if h != c.health {
						t.Errorf("Scan = %+v, want %+v", h, c.health)
					}
					if len(seen) != 1 || seen[0] != "k" {
						t.Errorf("Scan decoded keys %v, want [k]", seen)
					}
				}
				if got := exists(t, s.Path("k")); got != c.stays {
					t.Errorf("file present = %v, want %v", got, c.stays)
				}
				if got := exists(t, filepath.Join(dir, "quarantine", "k"+ext)); got != c.quarantined {
					t.Errorf("quarantined copy present = %v, want %v", got, c.quarantined)
				}
				wantQ := uint64(0)
				if c.quarantined {
					wantQ = 1
				}
				if s.Quarantined() != wantQ {
					t.Errorf("Quarantined = %d, want %d", s.Quarantined(), wantQ)
				}
				if !exists(t, other) {
					t.Error("a file with another suffix was removed")
				}
				// Whatever the verdict, the next read never trips on the
				// same bytes again: a judged file is gone, and nothing is
				// quarantined twice.
				err = s.Get("k", codec)
				if c.stays {
					if !errors.Is(err, c.want) {
						t.Errorf("second Get = %v, want %v", err, c.want)
					}
				} else if !errors.Is(err, fs.ErrNotExist) {
					t.Errorf("second Get = %v, want fs.ErrNotExist", err)
				}
				if s.Quarantined() != wantQ {
					t.Errorf("second Get re-tripped: Quarantined = %d, want %d", s.Quarantined(), wantQ)
				}
				if h := s.Scan(func(_ string, data []byte) error { return codec(data) }); h.Quarantined+h.Dropped != 0 {
					t.Errorf("rescan = %+v, want nothing left to judge", h)
				}
			})
		}
	}
}

// TestScanLeavesUnreadableFiles: a read that fails mid-scan is no verdict.
// The file is counted as scanned, left where it is, and served by a later
// read.
func TestScanLeavesUnreadableFiles(t *testing.T) {
	ffs := faults.NewFaultyFS(nil, 1)
	s, err := sealed.Open(t.TempDir(), ext, ffs)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, sealed.Seal([]byte("v1 "+k))); err != nil {
			t.Fatal(err)
		}
	}
	ffs.FailReadEvery = 2 // the scan's second read (b) fails
	h := s.Scan(func(_ string, data []byte) error { return codec(data) })
	if want := (sealed.Health{Scanned: 3, Healthy: 2}); h != want {
		t.Errorf("Scan = %+v, want %+v", h, want)
	}
	if _, _, failed := ffs.Counters(); failed != 1 {
		t.Fatalf("reads failed = %d, want 1 (fault schedule not live)", failed)
	}
	ffs.FailReadEvery = 0
	if err := s.Get("b", codec); err != nil {
		t.Errorf("Get after the fault cleared = %v, want nil", err)
	}
	if s.Quarantined() != 0 {
		t.Errorf("Quarantined = %d, want 0", s.Quarantined())
	}
}

// TestPutIsAtomic: whichever step of the publish fails — creating the tmp
// file, writing it, renaming it — neither a tmp file nor a partial final
// file is left, and a previous version survives.
func TestPutIsAtomic(t *testing.T) {
	failWrite := faults.NewFaultyFS(nil, 1)
	failWrite.FailWriteEvery = 1
	cases := []struct {
		name string
		fs   faults.FS
	}{
		{"CreateTemp", &hookFS{FS: faults.NewFaultyFS(nil, 1), failCreateTemp: true}},
		{"WriteFile", failWrite},
		{"Rename", &hookFS{FS: faults.NewFaultyFS(nil, 1), failRenameTo: ext}},
	}
	for _, c := range cases {
		for _, previous := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/previous=%v", c.name, previous), func(t *testing.T) {
				dir := t.TempDir()
				s, err := sealed.Open(dir, ext, c.fs)
				if err != nil {
					t.Fatal(err)
				}
				old := sealed.Seal([]byte("v1 old"))
				var want []string
				if previous {
					if err := os.WriteFile(s.Path("k"), old, 0o644); err != nil {
						t.Fatal(err)
					}
					want = []string{"k" + ext}
				}
				if err := s.Put("k", sealed.Seal([]byte("v1 new"))); !errors.Is(err, faults.ErrInjected) {
					t.Fatalf("Put = %v, want the injected failure", err)
				}
				if got := names(t, dir); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("directory after failed Put = %v, want %v", got, want)
				}
				if previous {
					if got, _ := os.ReadFile(s.Path("k")); !bytes.Equal(got, old) {
						t.Errorf("previous version damaged by a failed Put: %q", got)
					}
				}
			})
		}
	}

	// And the success path: exactly the bytes given, under the final name,
	// no tmp left, replacing what was there.
	dir := t.TempDir()
	s, err := sealed.Open(dir, ext, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range []string{"v1 first", "v1 second"} {
		data := sealed.Seal([]byte(payload))
		if err := s.Put("k", data); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(s.Path("k")); !bytes.Equal(got, data) {
			t.Errorf("published %q, want %q", got, data)
		}
	}
	if got := names(t, dir); len(got) != 1 || got[0] != "k"+ext {
		t.Errorf("directory after Put = %v, want [k%s]", got, ext)
	}
}

// TestQuarantineFallsBackToDelete: when the move to quarantine/ itself
// fails the corrupt file is deleted outright — still counted, still never
// re-read.
func TestQuarantineFallsBackToDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := sealed.Open(dir, ext, &hookFS{FS: faults.NewFaultyFS(nil, 1), failRenameTo: "quarantine"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path("k"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Get("k", codec); !errors.Is(err, sealed.ErrCorrupt) {
		t.Fatalf("Get = %v, want ErrCorrupt", err)
	}
	if exists(t, s.Path("k")) || exists(t, filepath.Join(dir, "quarantine", "k"+ext)) {
		t.Errorf("corrupt file survived a failed quarantine move: %v", names(t, dir))
	}
	if s.Quarantined() != 1 {
		t.Errorf("Quarantined = %d, want 1", s.Quarantined())
	}
	if err := s.Get("k", codec); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("second Get = %v, want fs.ErrNotExist", err)
	}
}

func TestRemoveMissingIsNotAnError(t *testing.T) {
	s, err := sealed.Open(t.TempDir(), ext, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", sealed.Seal([]byte("v1"))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Remove("k"); err != nil {
			t.Fatalf("Remove #%d = %v, want nil", i+1, err)
		}
	}
	if err := s.Get("k", codec); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Get after Remove = %v, want fs.ErrNotExist", err)
	}
}

// FuzzStoreGet feeds hostile file contents to Get under the two real
// codecs (a whole-file checkpoint, a per-record journal), seeded from
// their own fuzz corpora. Whatever the bytes, Get must not panic, the
// verdict must stay inside the taxonomy, and the file must end up exactly
// where the verdict says — so that no input can make a store serve,
// re-read or lose track of a bad file.
func FuzzStoreGet(f *testing.F) {
	ckpt, err := checkpoint.Encode(&checkpoint.State{Engine: "dvr-engine/test", Technique: "dvr"})
	if err != nil {
		f.Fatal(err)
	}
	rec := func(r ledger.Record) []byte {
		data, err := ledger.Encode(r)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	journal := append(rec(ledger.Record{Kind: ledger.KindAccepted, JobID: "job-1", Total: 1}),
		rec(ledger.Record{Kind: ledger.KindDone, JobID: "job-1"})...)
	flipped := append([]byte(nil), ckpt...)
	flipped[len(flipped)/4] ^= 1
	for _, seed := range [][]byte{
		ckpt, ckpt[:len(ckpt)/2], flipped, {},
		bytes.Replace(ckpt, []byte(`"version":4`), []byte(`"version":2`), 1),
		sealed.Seal([]byte(`{"version":0,"engine":"x"}`)),
		[]byte("\n# sha256:0000000000000000000000000000000000000000000000000000000000000000\n"),
		journal, journal[:len(journal)-7], append(append([]byte(nil), journal[:5]...), journal[6:]...),
		sealed.Seal([]byte(`{"v":99,"kind":"accepted"}`)),
		[]byte("{\"v\":1}\n# sha256:deadbeef\n"),
		[]byte("no newline at all"),
	} {
		f.Add(seed)
	}
	codecs := map[string]func([]byte) error{
		"checkpoint": func(data []byte) error { _, err := checkpoint.Decode(data); return err },
		"ledger":     func(data []byte) error { _, _, err := ledger.DecodeJournal(data); return err },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, decode := range codecs {
			dir := t.TempDir()
			s, err := sealed.Open(dir, ext, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.Path("k"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			err = s.Get("k", decode)
			corrupt, skew := errors.Is(err, sealed.ErrCorrupt), errors.Is(err, sealed.ErrSkew)
			if err != nil && corrupt == skew {
				t.Fatalf("%s: verdict outside the taxonomy (corrupt=%v skew=%v): %v", name, corrupt, skew, err)
			}
			if got := exists(t, s.Path("k")); got != (err == nil) {
				t.Fatalf("%s: verdict %v but file present = %v", name, err, got)
			}
			if got := exists(t, filepath.Join(dir, "quarantine", "k"+ext)); got != corrupt {
				t.Fatalf("%s: verdict %v but quarantined copy present = %v", name, err, got)
			}
			if got := s.Quarantined(); (got == 1) != corrupt || got > 1 {
				t.Fatalf("%s: verdict %v but Quarantined = %d", name, err, got)
			}
			if err == nil {
				if left, _ := os.ReadFile(s.Path("k")); !bytes.Equal(left, data) {
					t.Fatalf("%s: a healthy file was rewritten by Get", name)
				}
			} else if again := s.Get("k", decode); !errors.Is(again, fs.ErrNotExist) {
				t.Fatalf("%s: second Get = %v, want fs.ErrNotExist", name, again)
			}
		}
	})
}

package checkpoint

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dvr/internal/bpred"
	"dvr/internal/cpu"
	"dvr/internal/interp"
	"dvr/internal/mem"
	"dvr/internal/sealed"
	"dvr/internal/workloads"
)

// footerLen is the size of the digest footer sealed.Seal appends.
var footerLen = len(sealed.Seal(nil))

// testState builds a small but structurally real checkpoint, with one
// packed word record, one packed cache way and two small predictor
// tables, so every kind of packed field is on the wire.
func testState() *State {
	return &State{
		Engine:    "dvr-engine/test",
		Ref:       workloads.Ref{Kernel: "camel", ROI: 50_000},
		Technique: "dvr",
		Config:    cpu.DefaultConfig(),
		Core: cpu.Snapshot{
			Seq:        12_345,
			RegReady:   make([]uint64, 16),
			CommitRing: make([]uint64, 224),
			LoadRing:   make([]uint64, 72),
			StoreRing:  make([]uint64, 56),
			LastPCs:    []int{4, 5, 6, 7},
			Frontend: interp.Snapshot{Pages: []interp.PageDelta{
				{PN: 3, Data: []byte{7, 0, 1, 2, 3, 4, 5, 6, 7, 8}},
			}},
			Hier: mem.Snapshot{L1D: mem.CacheSnapshot{
				UseClock: 9,
				Ways:     []byte{0, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 1},
			}},
			Bpred: bpred.Snapshot{
				Bimodal: []byte{1, 2, 0xff},
				Tables:  [][]byte{{1, 0, 7, 0}, {0xfe, 1, 0, 1}},
			},
		},
	}
}

// inlineFile is st sealed in the v3 layout under the given version
// number: one JSON document with the packed fields inline as base64.
func inlineFile(t testing.TB, st *State, version int) []byte {
	t.Helper()
	cp := *st
	cp.Version = version
	js, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return sealed.Seal(js)
}

// splitV4 returns a v4 file's JSON and the sections after it.
func splitV4(t testing.TB, data []byte) (js, sections []byte) {
	t.Helper()
	payload, err := sealed.Unseal(data)
	if err != nil {
		t.Fatal(err)
	}
	js, sections, ok := bytes.Cut(payload, []byte{'\n'})
	if !ok {
		t.Fatal("v4 payload has no newline after its JSON")
	}
	return js, sections
}

// damagedSections are testState's v4 file with its sections cut,
// stretched or padded, then sealed again, so that only the section walk
// can tell. Each must decode as corruption.
func damagedSections(t testing.TB) map[string][]byte {
	t.Helper()
	data, err := Encode(testState())
	if err != nil {
		t.Fatal(err)
	}
	js, sec := splitV4(t, data)
	// testState's sections open with the 21-byte L1D ways (a one-byte
	// length) and end with its one page: count 1, page 3, 10 bytes.
	first, pages := 1+21, len(sec)-13
	if sec[0] != 21 || sec[pages] != 1 || sec[pages+1] != 3 || sec[pages+2] != 10 {
		t.Fatalf("testState's sections are laid out differently: % x", sec)
	}
	file := func(parts ...[]byte) []byte {
		payload := append(append([]byte(nil), js...), '\n')
		for _, p := range parts {
			payload = append(payload, p...)
		}
		return sealed.Seal(payload)
	}
	huge := binary.AppendUvarint(nil, 1<<40)
	return map[string][]byte{
		"truncated section":           file(sec[:len(sec)-1]),
		"truncated length":            file(sec[:first], []byte{0x80}),
		"section length past the end": file(huge, sec[1:]),
		"page count past the end":     file(sec[:pages], huge, sec[pages+1:]),
		"trailing bytes":              file(sec, []byte{0}),
		"missing section":             file(sec[:first]),
		"missing page":                file(sec[:pages+1]),
		"no sections":                 sealed.Seal(js),
		"empty sections":              file(),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	st := testState()
	data, err := Encode(st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Seq() != st.Seq() {
		t.Errorf("Seq = %d, want %d", got.Seq(), st.Seq())
	}
	if err := got.Matches(st.Engine, st.Ref, st.Technique, st.Config); err != nil {
		t.Errorf("round-tripped state does not match itself: %v", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	data, err := Encode(testState())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, footerLen - 1, len(data) / 2, len(data) - 1} {
		if n > len(data) {
			continue
		}
		if _, err := Decode(data[:n]); !errors.Is(err, sealed.ErrCorrupt) {
			t.Errorf("Decode(%d of %d bytes) = %v, want ErrCorrupt", n, len(data), err)
		}
	}
}

func TestDecodeBitFlips(t *testing.T) {
	data, err := Encode(testState())
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit at a spread of positions covering payload and footer.
	for pos := 0; pos < len(data); pos += 37 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x40
		if _, err := Decode(mut); !errors.Is(err, sealed.ErrCorrupt) {
			t.Fatalf("Decode with bit flip at %d = %v, want ErrCorrupt", pos, err)
		}
	}
}

func TestDecodeVersionSkew(t *testing.T) {
	st := testState()
	data, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	// Another format version — a future one, or the v1 files an upgraded
	// worker finds in its checkpoint directory — is intact data we cannot
	// interpret. Rewrite the version field and re-seal (the digest must
	// verify for the version check to even run).
	payload, err := sealed.Unseal(data)
	if err != nil {
		t.Fatal(err)
	}
	cur := fmt.Sprintf(`"version":%d`, FormatVersion)
	for _, other := range []string{`"version":1`, `"version":2`, `"version":99`} {
		mut := strings.Replace(string(payload), cur, other, 1)
		if mut == string(payload) {
			t.Fatal("version field not found in payload")
		}
		if _, err := Decode(sealed.Seal([]byte(mut))); !errors.Is(err, ErrVersion) {
			t.Errorf("Decode(%s) = %v, want ErrVersion", other, err)
		}
	}
}

// TestDecodeV2FileIsVersionSkew feeds Decode what a v2 worker left in the
// checkpoint directory: dense 4 KiB pages and cache ways as an array of
// objects, which does not even fit this build's field types. It must read
// as version skew (dropped, recomputed), not as corruption (quarantined).
// So must a file from a later format, whatever follows its JSON.
func TestDecodeV2FileIsVersionSkew(t *testing.T) {
	payload, err := sealed.Unseal(inlineFile(t, testState(), 3))
	if err != nil {
		t.Fatal(err)
	}
	v2 := string(payload)
	for _, r := range []struct{ v3, v2 string }{
		{`"version":3`, `"version":2`},
		{`"data":"BwABAgMEBQYHCA=="`, `"data":"` + base64.StdEncoding.EncodeToString(make([]byte, 4096)) + `"`},
		{`"ways":"AAAAAEAAAAAAAAAACQAAAAAAAAAB"`, `"ways":[{"w":0,"l":64,"d":true,"u":9}]`},
	} {
		if !strings.Contains(v2, r.v3) {
			t.Fatalf("payload has no %s", r.v3)
		}
		v2 = strings.Replace(v2, r.v3, r.v2, 1)
	}
	if _, err := Decode(sealed.Seal([]byte(v2))); !errors.Is(err, ErrVersion) {
		t.Errorf("Decode(v2 file) = %v, want ErrVersion", err)
	}
	// The same misfit under the current version number is damage.
	v3 := strings.Replace(v2, `"version":2`, `"version":3`, 1)
	if _, err := Decode(sealed.Seal([]byte(v3))); !errors.Is(err, sealed.ErrCorrupt) {
		t.Errorf("Decode(v3 file with v2 ways) = %v, want ErrCorrupt", err)
	}

	v4, err := Encode(testState())
	if err != nil {
		t.Fatal(err)
	}
	payload, err = sealed.Unseal(v4)
	if err != nil {
		t.Fatal(err)
	}
	v5 := bytes.Replace(payload, []byte(`"version":4`), []byte(`"version":5`), 1)
	if bytes.Equal(v5, payload) {
		t.Fatal("v4 payload has no \"version\":4")
	}
	if _, err := Decode(sealed.Seal(v5)); !errors.Is(err, ErrVersion) {
		t.Errorf("Decode(v5 head) = %v, want ErrVersion", err)
	}
}

// TestDecodeV3FileLoads: a v3 file, every packed field inline in its JSON,
// decodes to the state a v4 file of the same checkpoint decodes to.
func TestDecodeV3FileLoads(t *testing.T) {
	v4, err := Encode(testState())
	if err != nil {
		t.Fatal(err)
	}
	fromV4, err := Decode(v4)
	if err != nil {
		t.Fatal(err)
	}
	fromV3, err := Decode(inlineFile(t, testState(), 3))
	if err != nil {
		t.Fatalf("Decode(v3 file) = %v", err)
	}
	if fromV3.Version != 3 || fromV4.Version != FormatVersion {
		t.Errorf("decoded versions %d and %d, want 3 and %d", fromV3.Version, fromV4.Version, FormatVersion)
	}
	fromV3.Version = FormatVersion
	if !reflect.DeepEqual(fromV3, fromV4) {
		t.Errorf("v3 and v4 files of one checkpoint decode differently:\nv3 %+v\nv4 %+v", fromV3.Core, fromV4.Core)
	}
	if !reflect.DeepEqual(fromV4.Core.Bpred, testState().Core.Bpred) || !reflect.DeepEqual(fromV4.Core.Frontend, testState().Core.Frontend) {
		t.Errorf("v4 round trip changed the packed fields: %+v", fromV4.Core)
	}
	// A v3 file has nothing after its JSON.
	payload, _ := sealed.Unseal(inlineFile(t, testState(), 3))
	if _, err := Decode(sealed.Seal(append(payload, '\n', 0))); !errors.Is(err, sealed.ErrCorrupt) {
		t.Errorf("Decode(v3 file with sections) = %v, want ErrCorrupt", err)
	}
}

// TestDecodeDamagedSections: a v4 file whose sections were cut, stretched
// or padded is corruption, never a panic, even with a valid seal.
func TestDecodeDamagedSections(t *testing.T) {
	for name, data := range damagedSections(t) {
		if _, err := Decode(data); !errors.Is(err, sealed.ErrCorrupt) {
			t.Errorf("%s: Decode = %v, want ErrCorrupt", name, err)
		}
	}
	// A packed field both inline and in a section is damage too.
	data, err := Encode(testState())
	if err != nil {
		t.Fatal(err)
	}
	js, sec := splitV4(t, data)
	inline := bytes.Replace(js, []byte(`"bimodal":null`), []byte(`"bimodal":"AQI="`), 1)
	if bytes.Equal(inline, js) {
		t.Fatal(`v4 JSON has no "bimodal":null`)
	}
	if _, err := Decode(sealed.Seal(append(append(inline, '\n'), sec...))); !errors.Is(err, sealed.ErrCorrupt) {
		t.Errorf("Decode(bimodal inline and in a section) = %v, want ErrCorrupt", err)
	}
}

func TestMatchesRejectsEveryAxis(t *testing.T) {
	st := testState()
	otherCfg := st.Config
	otherCfg.ROBSize++
	cases := []struct {
		name string
		err  error
	}{
		{"engine", st.Matches("dvr-engine/other", st.Ref, st.Technique, st.Config)},
		{"technique", st.Matches(st.Engine, st.Ref, "ooo", st.Config)},
		{"workload", st.Matches(st.Engine, workloads.Ref{Kernel: "kangaroo"}, st.Technique, st.Config)},
		{"config", st.Matches(st.Engine, st.Ref, st.Technique, otherCfg)},
	}
	for _, c := range cases {
		if !errors.Is(c.err, ErrMismatch) {
			t.Errorf("Matches with different %s = %v, want ErrMismatch", c.name, c.err)
		}
	}
}

func TestStoreSaveLoadRemove(t *testing.T) {
	s, err := NewStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := testState()
	if err := s.Save("job1", st); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := s.Load("job1")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Seq() != st.Seq() {
		t.Errorf("Seq = %d, want %d", got.Seq(), st.Seq())
	}
	if _, err := s.Load("nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Load(missing) = %v, want fs.ErrNotExist", err)
	}
	if err := s.Remove("job1"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := s.Remove("job1"); err != nil {
		t.Fatalf("Remove(missing) = %v, want nil", err)
	}
	if _, err := s.Load("job1"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Load after Remove = %v, want fs.ErrNotExist", err)
	}
}

func TestStoreQuarantinesCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("bad", testState()); err != nil {
		t.Fatal(err)
	}
	// Corrupt the file on disk.
	path := s.Path("bad")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Load("bad"); !errors.Is(err, sealed.ErrCorrupt) {
		t.Fatalf("Load(corrupt) = %v, want ErrCorrupt", err)
	}
	if got := s.Quarantined(); got != 1 {
		t.Errorf("Quarantined = %d, want 1", got)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("corrupt file still at %s", path)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "bad"+ext)); err != nil {
		t.Errorf("quarantined copy missing: %v", err)
	}
	// Quarantined means never re-read: a fresh store over the same dir
	// scans it as empty and a Load is a plain miss, even across restarts.
	s2, err := NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h := s2.Scan(); h.Scanned != 0 || len(h.Pending) != 0 {
		t.Errorf("Scan after quarantine = %+v, want empty", h)
	}
	if _, err := s2.Load("bad"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Load after quarantine = %v, want fs.ErrNotExist", err)
	}
}

func TestStoreScan(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("ok1", testState()); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("ok2", testState()); err != nil {
		t.Fatal(err)
	}
	// One corrupt file, one version-skewed file.
	if err := os.WriteFile(s.Path("corrupt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := `{"version":0,"engine":"x"}`
	if err := os.WriteFile(s.Path("old"), sealed.Seal([]byte(old)), 0o644); err != nil {
		t.Fatal(err)
	}

	h := s.Scan()
	if h.Scanned != 4 || h.Healthy != 2 || h.Quarantined != 1 || h.Dropped != 1 {
		t.Errorf("Scan = %+v, want scanned 4 / healthy 2 / quarantined 1 / dropped 1", h)
	}
	if len(h.Pending) != 2 || h.Pending[0] != "ok1" || h.Pending[1] != "ok2" {
		t.Errorf("Pending = %v, want [ok1 ok2]", h.Pending)
	}
	if _, err := os.Stat(s.Path("old")); !errors.Is(err, fs.ErrNotExist) {
		t.Error("version-skewed file not dropped")
	}
}

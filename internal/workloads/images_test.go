package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvr/internal/graphgen"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// quickGraph is the graph input of the quick suite (experiments.QuickSuite),
// which this package cannot import.
var quickGraph = graphgen.Params{Gen: graphgen.GenKronecker, Scale: 13, EdgeFactor: 8, Seed: 7, Name: "KR-S"}

// wordsDigest is sha256 over (address, word) of every nonzero word of a
// freshly built image, ascending by address. A root memory's snapshot holds
// exactly its nonzero words, as 10-byte (uint16 index, uint64 word) records
// per 4 KiB page.
func wordsDigest(w *Workload) string {
	h := sha256.New()
	var rec [16]byte
	for _, pd := range w.Mem.SnapshotPages() {
		for d := pd.Data; len(d) > 0; d = d[10:] {
			binary.LittleEndian.PutUint64(rec[:8], pd.PN<<12|uint64(binary.LittleEndian.Uint16(d))<<3)
			copy(rec[8:], d[2:10])
			h.Write(rec[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// csrDigest is sha256 over a graph's vertex count, offsets and edges.
func csrDigest(g *graphgen.Graph) string {
	h := sha256.New()
	buf := binary.LittleEndian.AppendUint64(nil, uint64(g.N))
	for _, arr := range [][]uint64{g.Offsets, g.Edges} {
		for _, x := range arr {
			buf = binary.LittleEndian.AppendUint64(buf, x)
		}
	}
	h.Write(buf)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestImageDigests pins every quick-suite memory image word for word, with
// its footprint, and the CSR of every Table 2 and small graph input, against
// testdata/images_quick.golden. A change to how images or graphs are built
// that is meant to leave them alone proves it here; one that changes them on
// purpose regenerates the file with `go test ./internal/workloads -update`.
func TestImageDigests(t *testing.T) {
	var b strings.Builder
	b.WriteString("# image name sha256(address, word of every nonzero word) footprint\n")
	for _, sp := range append(GAPSpecs(quickGraph.Input()), HPCDBSpecs()...) {
		w := sp.Build()
		fmt.Fprintf(&b, "image %s %s %d\n", sp.Name, wordsDigest(w), w.Mem.Footprint())
	}
	b.WriteString("# graph name sha256(n, offsets, edges)\n")
	params := graphgen.Table2Params()
	for _, in := range graphgen.SmallInputs() {
		params = append(params, in.Params)
	}
	for _, p := range params {
		g, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "graph %s %s\n", p.Label(), csrDigest(g))
	}

	path := filepath.Join("testdata", "images_quick.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, golden := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(golden) {
		t.Fatalf("%s: this run has %d lines, the golden %d", path, len(got), len(golden))
	}
	for i := range got {
		if got[i] != golden[i] {
			t.Errorf("quick image moved: got %q, golden has %q", got[i], golden[i])
		}
	}
}

// BenchmarkQuickImages builds the 13 quick-suite images one after another
// from an already generated graph: the workloads.build_ms of a set-up.
func BenchmarkQuickImages(b *testing.B) {
	g, err := quickGraph.Generate()
	if err != nil {
		b.Fatal(err)
	}
	in := graphgen.Input{Name: quickGraph.Label(), Params: quickGraph, Build: func() *graphgen.Graph { return g }}
	specs := append(GAPSpecs(in), HPCDBSpecs()...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, sp := range specs {
			sp.Build()
		}
	}
}

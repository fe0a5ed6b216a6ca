package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"dvr/internal/graphgen"
	"dvr/internal/interp"
	"dvr/internal/isa"
)

func smallGraph() *graphgen.Graph { return graphgen.Kronecker(9, 6, 5) }

// runToHalt executes the workload functionally until it halts (traversal
// kernels) with a safety bound.
func runToHalt(t *testing.T, w *Workload, bound uint64) *interp.Interp {
	t.Helper()
	it := interp.New(w.Prog, w.Mem)
	it.Run(bound)
	if !it.St.Halted {
		t.Fatalf("%s did not halt within %d instructions", w.Name, bound)
	}
	return it
}

// runPasses executes until the restart instruction (li r1,0 at len-2) has
// been reached `passes` times, i.e. exactly `passes` full passes ran.
func runPasses(t *testing.T, w *Workload, passes int, bound uint64) {
	t.Helper()
	restart := len(w.Prog.Code) - 2
	if w.Prog.Code[restart].Op != isa.Li {
		t.Fatalf("%s: expected restart li at pc %d, got %v", w.Name, restart, w.Prog.Code[restart])
	}
	it := interp.New(w.Prog, w.Mem)
	seen := 0
	for i := uint64(0); i < bound; i++ {
		di, ok := it.Step()
		if !ok {
			t.Fatalf("%s halted unexpectedly", w.Name)
		}
		if di.PC == restart {
			seen++
			if seen == passes {
				return
			}
		}
	}
	t.Fatalf("%s: only %d/%d passes within %d instructions", w.Name, seen, passes, bound)
}

func TestAllWorkloadsBuildAndValidate(t *testing.T) {
	g := smallGraph()
	builders := map[string]func() *Workload{
		"bc":           func() *Workload { return BC(g) },
		"bfs":          func() *Workload { return BFS(g) },
		"cc":           func() *Workload { return CC(g) },
		"pr":           func() *Workload { return PR(g) },
		"sssp":         func() *Workload { return SSSP(g) },
		"camel":        Camel,
		"graph500":     Graph500,
		"hj2":          HJ2,
		"hj8":          HJ8,
		"kangaroo":     Kangaroo,
		"nas-cg":       NASCG,
		"nas-is":       NASIS,
		"randomaccess": RandomAccess,
	}
	for name, build := range builders {
		w := build()
		if err := w.Prog.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if w.Sym == nil {
			t.Errorf("%s: no symbol table", name)
		}
		// Every workload must run its warmup region without halting.
		it := interp.New(w.Prog, w.Mem)
		if n := it.Run(w.Skip + 1000); n < w.Skip {
			t.Errorf("%s: halted during warmup after %d instructions", name, n)
		}
	}
}

func TestBFSMatchesReferenceReachability(t *testing.T) {
	g := smallGraph()
	w := BFS(g)
	it := runToHalt(t, w, 50_000_000)
	_ = it

	// Reference BFS from the same start vertex.
	start := int(w.Sym["start"])
	visited := make([]bool, g.N)
	visited[start] = true
	frontier := []int{start}
	for len(frontier) > 0 {
		var next []int
		for _, v := range frontier {
			for e := g.Offsets[v]; e < g.Offsets[v+1]; e++ {
				u := int(g.Edges[e])
				if !visited[u] {
					visited[u] = true
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	base := w.Sym["visited"]
	for v := 0; v < g.N; v++ {
		got := w.Mem.Load64(base+uint64(v)*8) != 0
		if got != visited[v] {
			t.Fatalf("visited[%d] = %v, reference %v", v, got, visited[v])
		}
	}
}

func TestGraph500ParentsAreValid(t *testing.T) {
	w := Graph500()
	runToHalt(t, w, 400_000_000)
	g := graphgen.Kronecker(16, 16, 500) // same input as the builder
	vis := w.Sym["visited"]
	par := w.Sym["parent"]
	start := int(w.Sym["start"])
	checked := 0
	for u := 0; u < g.N && checked < 2000; u++ {
		if w.Mem.Load64(vis+uint64(u)*8) == 0 || u == start {
			continue
		}
		p := int(w.Mem.Load64(par + uint64(u)*8))
		// p must be a visited vertex with an edge to u.
		if w.Mem.Load64(vis+uint64(p)*8) == 0 {
			t.Fatalf("parent[%d] = %d is unvisited", u, p)
		}
		found := false
		for e := g.Offsets[p]; e < g.Offsets[p+1]; e++ {
			if int(g.Edges[e]) == u {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("parent[%d] = %d has no edge to %d", u, p, u)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no visited vertices to check")
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	g := graphgen.Kronecker(8, 6, 3)
	w := SSSP(g)
	runToHalt(t, w, 100_000_000)

	// Reference Dijkstra with the weights read back from the image.
	const inf = uint64(1) << 40
	wBase := w.Sym["weights"]
	weight := func(j uint64) uint64 { return w.Mem.Load64(wBase + j*8) }
	dist := make([]uint64, g.N)
	for i := range dist {
		dist[i] = inf
	}
	start := int(w.Sym["start"])
	dist[start] = 0
	inQ := make([]bool, g.N)
	for {
		u, best := -1, inf
		for v := 0; v < g.N; v++ {
			if !inQ[v] && dist[v] < best {
				u, best = v, dist[v]
			}
		}
		if u < 0 {
			break
		}
		inQ[u] = true
		for e := g.Offsets[u]; e < g.Offsets[u+1]; e++ {
			v := int(g.Edges[e])
			if nd := dist[u] + weight(e); nd < dist[v] {
				dist[v] = nd
			}
		}
	}
	dBase := w.Sym["dist"]
	for v := 0; v < g.N; v++ {
		if got := w.Mem.Load64(dBase + uint64(v)*8); got != dist[v] {
			t.Fatalf("dist[%d] = %d, Dijkstra %d", v, got, dist[v])
		}
	}
}

func TestCCReachesEdgeFixpoint(t *testing.T) {
	g := graphgen.Kronecker(7, 4, 9)
	w := CC(g)
	// Run many propagation passes, then check the fixpoint property: every
	// edge's endpoints carry equal labels.
	runPasses(t, w, 40, 50_000_000)
	comp := w.Sym["comp"]
	srcA, dstA := w.Sym["src"], w.Sym["dst"]
	m := int(w.Sym["m"])
	for e := 0; e < m; e++ {
		u := w.Mem.Load64(srcA + uint64(e)*8)
		v := w.Mem.Load64(dstA + uint64(e)*8)
		cu := w.Mem.Load64(comp + u*8)
		cv := w.Mem.Load64(comp + v*8)
		if cu != cv {
			t.Fatalf("edge (%d,%d): labels %d != %d after fixpoint", u, v, cu, cv)
		}
	}
	// Labels must be valid vertex ids and never exceed the vertex's own id.
	for v := 0; v < g.N; v++ {
		c := w.Mem.Load64(comp + uint64(v)*8)
		if c > uint64(v) {
			t.Fatalf("comp[%d] = %d increased", v, c)
		}
	}
}

func TestNASISHistogramCorrect(t *testing.T) {
	w := NASIS()
	n := int(w.Sym["n"])
	buckets := int(w.Sym["buckets"])
	keys := w.Sym["keys"]
	// Snapshot expected histogram from the keys in the image.
	want := make(map[uint64]uint64)
	for i := 0; i < n; i++ {
		want[w.Mem.Load64(keys+uint64(i)*8)]++
	}
	runPasses(t, w, 1, 200_000_000)
	count := w.Sym["count"]
	checked := 0
	for k, c := range want {
		if int(k) >= buckets {
			t.Fatalf("key %d out of range", k)
		}
		if got := w.Mem.Load64(count + k*8); got != c {
			t.Fatalf("count[%d] = %d, want %d", k, got, c)
		}
		checked++
		if checked > 5000 {
			break
		}
	}
}

func TestCamelCountsSumToKeys(t *testing.T) {
	w := Camel()
	n := int(w.Sym["n"])
	tbl := int(w.Sym["tbl"])
	runPasses(t, w, 1, 200_000_000)
	c := w.Sym["c"]
	var sum uint64
	for i := 0; i < tbl; i++ {
		sum += w.Mem.Load64(c + uint64(i)*8)
	}
	if sum != uint64(n) {
		t.Fatalf("sum of C counts = %d, want %d (one increment per key)", sum, n)
	}
}

func TestRandomAccessInvolution(t *testing.T) {
	// GUPS XOR updates: two full passes restore the original table.
	w := RandomAccess()
	tBase := w.Sym["t"]
	tbl := int(w.Sym["tbl"])
	before := make([]uint64, 512)
	for i := range before {
		before[i] = w.Mem.Load64(tBase + uint64(i)*8)
	}
	runPasses(t, w, 2, 400_000_000)
	for i := range before {
		if got := w.Mem.Load64(tBase + uint64(i)*8); got != before[i] {
			t.Fatalf("T[%d] = %d after two XOR passes, want %d", i, got, before[i])
		}
	}
	_ = tbl
}

func TestHJ2ProbesStayInTable(t *testing.T) {
	w := HJ2()
	// Every table entry indexes back into the table; the chain can never
	// leave [0, tbl).
	tbl := w.Sym["tbl"]
	ht := w.Sym["ht"]
	for i := 0; i < 4096; i++ {
		if v := w.Mem.Load64(ht + uint64(i)*8); v >= tbl {
			t.Fatalf("ht[%d] = %d escapes the table", i, v)
		}
	}
	runPasses(t, w, 1, 200_000_000)
}

func TestPRRanksEvolve(t *testing.T) {
	g := graphgen.Kronecker(8, 6, 4)
	w := PR(g)
	rank := w.Sym["rank"]
	it := interp.New(w.Prog, w.Mem)
	it.Run(200_000)
	var nonInit int
	for v := 0; v < g.N; v++ {
		if w.Mem.Load64(rank+uint64(v)*8) != 1 {
			nonInit++
		}
	}
	// After the swap the live rank array is "next"; at least one of the
	// two arrays must have evolved away from the all-ones init.
	next := w.Sym["next"]
	for v := 0; v < g.N; v++ {
		if w.Mem.Load64(next+uint64(v)*8) != 0 {
			nonInit++
		}
	}
	if nonInit == 0 {
		t.Error("pagerank never updated any rank")
	}
}

func TestBCSigmaAccumulates(t *testing.T) {
	g := smallGraph()
	w := BC(g)
	runToHalt(t, w, 100_000_000)
	sigma := w.Sym["sigma"]
	depth := w.Sym["depth"]
	var reached, counted int
	for v := 0; v < g.N; v++ {
		if w.Mem.Load64(depth+uint64(v)*8) != 0 {
			reached++
			if w.Mem.Load64(sigma+uint64(v)*8) > 0 {
				counted++
			}
		}
	}
	if reached == 0 {
		t.Fatal("bc reached nothing")
	}
	if counted < reached*9/10 {
		t.Errorf("only %d of %d reached vertices have path counts", counted, reached)
	}
}

func TestSpecCatalogues(t *testing.T) {
	in := graphgen.Input{Name: "T", Build: smallGraph}
	gap := GAPSpecs(in)
	if len(gap) != 5 {
		t.Errorf("GAP specs = %d, want 5", len(gap))
	}
	hpc := HPCDBSpecs()
	if len(hpc) != 8 {
		t.Errorf("HPCDB specs = %d, want 8", len(hpc))
	}
	names := map[string]bool{}
	for _, s := range append(gap, hpc...) {
		if names[s.Name] {
			t.Errorf("duplicate spec %s", s.Name)
		}
		names[s.Name] = true
		if s.ROI == 0 {
			t.Errorf("%s: zero ROI", s.Name)
		}
	}
}

func TestFrontendSkips(t *testing.T) {
	w := Camel()
	fe := w.Frontend()
	if fe.Seq != w.Skip {
		t.Errorf("frontend Seq = %d, want %d", fe.Seq, w.Skip)
	}
}

func TestWorkingSetsExceedLLC(t *testing.T) {
	// The paper's workloads miss in the 8 MB LLC; each memory image must
	// be comfortably larger.
	for _, build := range []func() *Workload{Camel, HJ2, NASIS, RandomAccess, NASCG, Kangaroo} {
		w := build()
		if fp := w.Mem.Footprint(); fp < 12<<20 {
			t.Errorf("%s footprint %d MB; must exceed the 8 MB LLC", w.Name, fp>>20)
		}
	}
}

// imageHash digests every nonzero word of a freshly built image, pages in
// ascending order.
func imageHash(w *Workload) string {
	h := sha256.New()
	for _, pd := range w.Mem.SnapshotPages() {
		h.Write(binary.LittleEndian.AppendUint64(nil, pd.PN))
		h.Write(pd.Data)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestHPCDBImagesUnchanged pins the HPC/DB memory images word for word:
// randWords fills mapped arrays in place, concurrently, and masks
// power-of-two moduli, and must produce exactly what the n-word,
// DIV-per-word version did. The digests were taken at commit f63f945,
// before those changes.
func TestHPCDBImagesUnchanged(t *testing.T) {
	want := map[string]string{
		"camel":        "65a8a381557fa048",
		"graph500":     "d286ce4b305a9655",
		"hj2":          "145b218fcc81d489",
		"hj8":          "145b218fcc81d489",
		"kangaroo":     "b2d6c2423b65e842",
		"nas-cg":       "85a7ed89df15a44f",
		"nas-is":       "96a17c771877eca3",
		"randomaccess": "7317a24c14a9fbd3",
	}
	specs := HPCDBSpecs()
	if len(specs) != len(want) {
		t.Errorf("%d HPC/DB specs, %d pinned digests", len(specs), len(want))
	}
	for _, sp := range specs {
		if got := imageHash(sp.Build()); got != want[sp.Name] {
			t.Errorf("%s: image digest %s, want %s", sp.Name, got, want[sp.Name])
		}
	}
}

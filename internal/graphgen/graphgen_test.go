package graphgen

import (
	"math"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// checkCSR validates the CSR invariants: offsets monotonic, edge count
// consistent, all destinations in range.
func checkCSR(t *testing.T, g *Graph) {
	t.Helper()
	if len(g.Offsets) != g.N+1 {
		t.Fatalf("offsets len %d, want %d", len(g.Offsets), g.N+1)
	}
	if g.Offsets[0] != 0 || g.Offsets[g.N] != uint64(len(g.Edges)) {
		t.Fatalf("offset endpoints: %d, %d (edges %d)", g.Offsets[0], g.Offsets[g.N], len(g.Edges))
	}
	for v := 0; v < g.N; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			t.Fatalf("offsets not monotonic at %d", v)
		}
	}
	for _, d := range g.Edges {
		if d >= uint64(g.N) {
			t.Fatalf("edge destination %d out of range", d)
		}
	}
}

func TestKroneckerCSR(t *testing.T) {
	g := Kronecker(10, 8, 1)
	checkCSR(t, g)
	if g.N != 1024 || g.M() != 8192 {
		t.Errorf("kron size: N=%d M=%d", g.N, g.M())
	}
}

// kroneckerSequential is Kronecker as it was before the edge loop was
// split across goroutines: one generator, advanced edge after edge.
func kroneckerSequential(scale, edgeFactor int, seed uint64) *Graph {
	n := 1 << uint(scale)
	m := n * edgeFactor
	r := rng{s: seed}
	src := make([]uint32, m)
	dst := make([]uint32, m)
	const a, b, c = 0.57, 0.19, 0.19
	for i := 0; i < m; i++ {
		var u, v int
		for bit := scale - 1; bit >= 0; bit-- {
			p := r.float()
			switch {
			case p < a:
			case p < a+b:
				v |= 1 << uint(bit)
			case p < a+b+c:
				u |= 1 << uint(bit)
			default:
				u |= 1 << uint(bit)
				v |= 1 << uint(bit)
			}
		}
		src[i] = uint32(u)
		dst[i] = uint32(v)
	}
	return fromEdgeList(n, src, dst)
}

// TestKroneckerParallelMatchesSequential: however many goroutines fill the
// edge list, the graph is the sequential generator's, bit for bit. Five
// does not divide an edge count that is a power of two times eight, so the
// ranges are uneven.
func TestKroneckerParallelMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for scale := 4; scale <= 14; scale++ {
		want := kroneckerSequential(scale, 8, uint64(scale)+7)
		for _, procs := range []int{1, 2, 5} {
			runtime.GOMAXPROCS(procs)
			if got := Kronecker(scale, 8, uint64(scale)+7); !reflect.DeepEqual(got, want) {
				t.Errorf("scale %d at GOMAXPROCS %d: graph differs from the sequential generator's", scale, procs)
			}
		}
	}
}

func TestUniformCSR(t *testing.T) {
	g := Uniform(1000, 8000, 2)
	checkCSR(t, g)
	if g.N != 1000 || g.M() != 8000 {
		t.Errorf("uniform size: N=%d M=%d", g.N, g.M())
	}
}

func TestPowerLawCSR(t *testing.T) {
	g := PowerLaw(1000, 8000, 2.2, 3)
	checkCSR(t, g)
}

// TestCSRProperty: random generator parameters always yield valid CSR.
func TestCSRProperty(t *testing.T) {
	f := func(nRaw, mRaw uint16, seed uint64) bool {
		n := int(nRaw%2000) + 2
		m := int(mRaw % 8000)
		g := Uniform(n, m, seed)
		if len(g.Offsets) != n+1 || int(g.Offsets[n]) != m {
			return false
		}
		for v := 0; v < n; v++ {
			if g.Offsets[v] > g.Offsets[v+1] {
				return false
			}
		}
		for _, d := range g.Edges {
			if d >= uint64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestKroneckerIsSkewed(t *testing.T) {
	g := Kronecker(12, 8, 7)
	degs := make([]int, g.N)
	for v := 0; v < g.N; v++ {
		degs[v] = g.Degree(v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	// Top 1% of vertices should own a disproportionate share of edges.
	top := 0
	for _, d := range degs[:g.N/100] {
		top += d
	}
	if float64(top) < 0.15*float64(g.M()) {
		t.Errorf("kron top-1%% owns %.1f%% of edges; expected heavy skew", 100*float64(top)/float64(g.M()))
	}
}

func TestUniformIsNotSkewed(t *testing.T) {
	g := Uniform(4096, 65536, 5)
	maxDeg := 0
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	// Mean degree is 16; a uniform graph's max should stay within a small
	// multiple (Poisson tail).
	if maxDeg > 64 {
		t.Errorf("uniform max degree %d; too skewed", maxDeg)
	}
}

func TestPowerLawSkewOrdering(t *testing.T) {
	heavy := PowerLaw(4096, 65536, 2.0, 9)
	light := PowerLaw(4096, 65536, 3.0, 9)
	share := func(g *Graph) float64 {
		degs := make([]int, g.N)
		for v := range degs {
			degs[v] = g.Degree(v)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(degs)))
		top := 0
		for _, d := range degs[:g.N/100] {
			top += d
		}
		return float64(top) / float64(g.M())
	}
	if share(heavy) <= share(light) {
		t.Errorf("alpha=2.0 share %.3f should exceed alpha=3.0 share %.3f", share(heavy), share(light))
	}
}

func TestDeterminism(t *testing.T) {
	a := Kronecker(10, 4, 99)
	b := Kronecker(10, 4, 99)
	if a.M() != b.M() {
		t.Fatal("sizes differ")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
	c := Kronecker(10, 4, 100)
	same := true
	for i := range a.Edges {
		if a.Edges[i] != c.Edges[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical graphs")
	}
}

func TestTable2Inputs(t *testing.T) {
	inputs := Table2Inputs()
	if len(inputs) != 5 {
		t.Fatalf("inputs = %d, want 5", len(inputs))
	}
	names := map[string]bool{}
	for _, in := range inputs {
		names[in.Name] = true
	}
	for _, want := range []string{"KR", "LJN", "ORK", "TW", "UR"} {
		if !names[want] {
			t.Errorf("missing Table 2 input %s", want)
		}
	}
}

// Size is what Table 2 prints for an input it does not regenerate; it must
// be what the generator builds.
func TestSizeMatchesGenerated(t *testing.T) {
	for _, p := range []Params{
		{Gen: GenKronecker, Scale: 10, EdgeFactor: 8, Seed: 1},
		{Gen: GenUniform, N: 1000, M: 7000, Seed: 2},
		{Gen: GenPowerLaw, N: 1000, M: 9000, Alpha: 2.3, Seed: 3},
	} {
		g, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if n, m := p.Size(); n != g.N || m != g.M() {
			t.Errorf("%s: Size() = %d, %d; generated %d vertices, %d edges", p.Gen, n, m, g.N, g.M())
		}
	}
}

func TestDegreeAccessor(t *testing.T) {
	g := &Graph{N: 2, Offsets: []uint64{0, 3, 5}, Edges: []uint64{1, 1, 0, 0, 1}}
	if g.Degree(0) != 3 || g.Degree(1) != 2 {
		t.Errorf("degrees: %d, %d", g.Degree(0), g.Degree(1))
	}
}

// TestQuadrantMatchesFloatCompares: the integer-threshold quadrant is the
// three float comparisons of a draw p = k/2^53 against a, a+b and a+b+c,
// at every threshold and either side of it, and on a million random draws.
func TestQuadrantMatchesFloatCompares(t *testing.T) {
	float := func(k uint64) (u, v uint64) {
		switch p := float64(k) / (1 << 53); {
		case p < quadA:
			return 0, 0
		case p < quadA+quadB:
			return 0, 1
		case p < quadA+quadB+quadC:
			return 1, 0
		}
		return 1, 1
	}
	check := func(k uint64) {
		t.Helper()
		gu, gv := quadrant(k)
		wu, wv := float(k)
		if gu != wu || gv != wv {
			t.Fatalf("k=%d: quadrant (%d,%d), float compares (%d,%d)", k, gu, gv, wu, wv)
		}
	}
	for _, thr := range []uint64{thrA, thrAB, thrABC} {
		for _, k := range []uint64{thr - 1, thr, thr + 1} {
			check(k)
		}
	}
	check(0)
	check(1<<53 - 1)
	r := rng{s: 42}
	for i := 0; i < 1_000_000; i++ {
		check(r.next() >> 11)
	}
}

// TestGeneratedCSRIndependentOfGOMAXPROCS: each generator's CSR is the same
// whether one goroutine or several fill its edge list. The edge counts are
// not multiples of 2 or 7, so the workers' ranges are uneven.
func TestGeneratedCSRIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	gens := map[string]func() *Graph{
		"kronecker": func() *Graph { return Kronecker(12, 7, 3) },
		"uniform":   func() *Graph { return Uniform(5000, 60_001, 4) },
		"powerlaw":  func() *Graph { return PowerLaw(5000, 60_001, 2.2, 5) },
	}
	for name, gen := range gens {
		runtime.GOMAXPROCS(1)
		want := gen()
		for _, procs := range []int{2, 7} {
			runtime.GOMAXPROCS(procs)
			if got := gen(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s at GOMAXPROCS %d: graph differs from the one-goroutine graph", name, procs)
			}
		}
	}
}

// TestValidateBoundsGraphSize: graphs up to the paper-scale inputs
// validate; one vertex or edge beyond MaxVertices or MaxEdges does not, and
// the error names the limit.
func TestValidateBoundsGraphSize(t *testing.T) {
	ok := []Params{
		{Gen: GenKronecker, Scale: 22, EdgeFactor: 16},
		{Gen: GenKronecker, Scale: 24, EdgeFactor: 4},
		{Gen: GenUniform, N: 1 << 20, M: MaxEdges},
		{Gen: GenPowerLaw, N: MaxVertices, M: 16 << 20, Alpha: 2},
	}
	for _, p := range ok {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v: %v", p, err)
		}
	}
	bad := []struct {
		p     Params
		limit string // what the error must state
	}{
		{Params{Gen: GenKronecker, Scale: 22, EdgeFactor: 17}, strconv.Itoa(MaxEdges)},
		{Params{Gen: GenKronecker, Scale: 25, EdgeFactor: 1}, "scale <= 24"},
		{Params{Gen: GenKronecker, Scale: 1, EdgeFactor: math.MaxInt}, strconv.Itoa(MaxEdges)},
		{Params{Gen: GenUniform, N: 1, M: 4_000_000_000}, strconv.Itoa(MaxEdges)},
		{Params{Gen: GenUniform, N: MaxVertices + 1, M: 1}, strconv.Itoa(MaxVertices)},
		{Params{Gen: GenPowerLaw, N: MaxVertices + 1, M: 1, Alpha: 2}, strconv.Itoa(MaxVertices)},
		{Params{Gen: GenPowerLaw, N: 10, M: MaxEdges + 1, Alpha: 2}, strconv.Itoa(MaxEdges)},
	}
	for _, c := range bad {
		if err := c.p.Validate(); err == nil {
			t.Errorf("%+v validates", c.p)
		} else if !strings.Contains(err.Error(), c.limit) {
			t.Errorf("%+v: error %q does not state the limit %s", c.p, err, c.limit)
		}
	}
}

// BenchmarkTable2 generates the five Table 2 inputs.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range Table2Params() {
			if _, err := p.Generate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

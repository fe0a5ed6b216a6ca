// Package graphgen generates the graph inputs of Table 2 (scaled down, see
// DESIGN.md): Kronecker/R-MAT (KR), uniform random (UR), and power-law
// generators standing in for the LiveJournal, Orkut and Twitter crawls.
// Graphs are produced in CSR form, the layout the GAP kernels consume.
//
// Inputs come in two forms: Params, a declarative, serializable description
// (generator name plus its numeric parameters) that can cross a process
// boundary and be hashed into a cache key, and Input, the closure form the
// in-process harnesses consume. Every Params produces an Input; a custom
// Input (hand-built Graph) simply has no Params.
package graphgen

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Graph is a directed graph in CSR (compressed sparse row) form.
type Graph struct {
	N       int      // number of vertices
	Offsets []uint64 // len N+1; edge range of vertex v is [Offsets[v], Offsets[v+1])
	Edges   []uint64 // destination vertex ids
}

// M returns the number of edges.
func (g *Graph) M() int { return len(g.Edges) }

// Degree returns the out-degree of vertex v.
func (g *Graph) Degree(v int) int { return int(g.Offsets[v+1] - g.Offsets[v]) }

// rng is a splitmix64 PRNG: deterministic, seedable, fast.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// skip advances r as n calls of next would: the state is a counter.
func (r *rng) skip(n uint64) { r.s += n * 0x9e3779b97f4a7c15 }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// fromEdgeList builds a CSR graph from (src, dst) pairs.
func fromEdgeList(n int, src, dst []uint32) *Graph {
	g := &Graph{N: n, Offsets: make([]uint64, n+1), Edges: make([]uint64, len(src))}
	counts := make([]uint64, n)
	for _, s := range src {
		counts[s]++
	}
	var acc uint64
	for v := 0; v < n; v++ {
		g.Offsets[v] = acc
		acc += counts[v]
	}
	g.Offsets[n] = acc
	cursor := make([]uint64, n)
	copy(cursor, g.Offsets[:n])
	for i, s := range src {
		g.Edges[cursor[s]] = uint64(dst[i])
		cursor[s]++
	}
	return g
}

// Kronecker generates an R-MAT/Kronecker graph with 2^scale vertices and
// edgeFactor edges per vertex, using the Graph500 partition probabilities
// (a=0.57, b=0.19, c=0.19): a heavily skewed power-law degree distribution
// with a few extremely hot vertices. Edge i consumes the generator's words
// i*scale .. i*scale+scale-1.
func Kronecker(scale, edgeFactor int, seed uint64) *Graph {
	n := 1 << uint(scale)
	return parallelEdges(n, n*edgeFactor, seed, scale, func(r rng, src, dst []uint32) {
		for i := range src {
			var u, v uint64
			for bit := scale - 1; bit >= 0; bit-- {
				qu, qv := quadrant(r.next() >> 11)
				u |= qu << uint(bit)
				v |= qv << uint(bit)
			}
			src[i] = uint32(u)
			dst[i] = uint32(v)
		}
	})
}

// The R-MAT quadrant probabilities, and the cumulative thresholds a, a+b
// and a+b+c scaled to 53-bit integers. A draw p = k/2^53 (k = next()>>11,
// which is exact) falls below a threshold t exactly when k < t*2^53: each t
// is a float64 in [0.5, 1), so a multiple of 2^-53, and the conversions to
// uint64 would not compile were t*2^53 not an integer.
const (
	quadA, quadB, quadC = 0.57, 0.19, 0.19

	thrA   = uint64(float64(quadA) * (1 << 53))
	thrAB  = uint64(float64(quadA+quadB) * (1 << 53))
	thrABC = uint64(float64(quadA+quadB+quadC) * (1 << 53))
)

// quadrant returns the row and column bits of the quadrant a 53-bit draw k
// selects: (0,0) below a, (0,1) below a+b, (1,0) below a+b+c, else (1,1).
// It compares without branching; (k-t)>>63 is 1 exactly when k < t, since
// both are below 2^53.
func quadrant(k uint64) (u, v uint64) {
	ltA, ltAB, ltABC := (k-thrA)>>63, (k-thrAB)>>63, (k-thrABC)>>63
	return 1 ^ ltAB, 1 ^ ltA ^ ltAB ^ ltABC
}

// Uniform generates an Erdos-Renyi-style graph with n vertices and m
// uniformly random edges: degrees concentrate around m/n, so inner loops
// over neighbours are uniformly short (the paper's UR input, where DVR's
// Nested Vector Runahead matters most). Edge i consumes the generator's
// words 2i (source) and 2i+1 (destination).
func Uniform(n, m int, seed uint64) *Graph {
	return parallelEdges(n, m, seed, 2, func(r rng, src, dst []uint32) {
		for i := range src {
			src[i] = uint32(r.intn(n))
			dst[i] = uint32(r.intn(n))
		}
	})
}

// PowerLaw generates a graph whose out-degrees follow a discrete power law
// p(d) ~ d^-alpha (smaller alpha = heavier tail, hotter head vertices). It
// stands in for the real-world crawls (LiveJournal, Orkut, Twitter) of
// Table 2. Sources are drawn from a Zipf distribution over vertex rank
// with exponent s = 1/(alpha-1), the rank-frequency exponent matching the
// degree exponent. Edge i consumes the generator's words 2i (source) and
// 2i+1 (destination).
func PowerLaw(n, m int, alpha float64, seed uint64) *Graph {
	s := 1.0 / (alpha - 1.0)
	cum := make([]float64, n)
	total := 0.0
	for rank := 0; rank < n; rank++ {
		total += math.Pow(float64(rank+1), -s)
		cum[rank] = total
	}
	return parallelEdges(n, m, seed, 2, func(r rng, src, dst []uint32) {
		for i := range src {
			u := r.float() * total
			lo, hi := 0, n-1
			for lo < hi {
				mid := (lo + hi) / 2
				if cum[mid] < u {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			src[i] = uint32(lo)
			dst[i] = uint32(r.intn(n))
		}
	})
}

// parallelEdges draws m edges over n vertices and builds their CSR. Edge i
// consumes the generator's words i*words .. i*words+words-1 and splitmix64
// is counter-based (skip), so the edge list is filled by up to GOMAXPROCS
// goroutines, each calling draw with a generator positioned at the first
// edge of its own range, and comes out the same whatever their number.
func parallelEdges(n, m int, seed uint64, words int, draw func(r rng, src, dst []uint32)) *Graph {
	src := make([]uint32, m)
	dst := make([]uint32, m)
	// A goroutine is worth starting for a few thousand edges, not fewer.
	const minEdges = 4096
	workers := max(1, min(runtime.GOMAXPROCS(0), m/minEdges))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := m*w/workers, m*(w+1)/workers
		r := rng{s: seed}
		r.skip(uint64(lo) * uint64(words))
		wg.Add(1)
		go func() {
			defer wg.Done()
			draw(r, src[lo:hi], dst[lo:hi])
		}()
	}
	wg.Wait()
	return fromEdgeList(n, src, dst)
}

// Generator names accepted by Params.Gen.
const (
	GenKronecker = "kronecker"
	GenUniform   = "uniform"
	GenPowerLaw  = "powerlaw"
)

// Params is a declarative graph description: which generator to run and
// with what numbers. It is pure data — JSON-encodable, comparable by value,
// hashable into a cache key — and fully determines the generated graph
// (all generators are seeded and deterministic).
type Params struct {
	Gen        string  `json:"gen"`                   // kronecker | uniform | powerlaw
	Scale      int     `json:"scale,omitempty"`       // kronecker: 2^Scale vertices
	EdgeFactor int     `json:"edge_factor,omitempty"` // kronecker: edges per vertex
	N          int     `json:"n,omitempty"`           // uniform/powerlaw: vertices
	M          int     `json:"m,omitempty"`           // uniform/powerlaw: edges
	Alpha      float64 `json:"alpha,omitempty"`       // powerlaw: degree exponent (>1)
	Seed       uint64  `json:"seed"`
	Name       string  `json:"name,omitempty"` // display name; defaults to Gen
}

// Zero reports whether p is the zero value (an Input built from a custom
// closure rather than a declarative description).
func (p Params) Zero() bool { return p.Gen == "" }

// Label returns the display name used in benchmark spec names.
func (p Params) Label() string {
	if p.Name != "" {
		return p.Name
	}
	return p.Gen
}

// The largest graph Params may describe. Generation holds its edges three
// times over (source and destination lists, then the CSR), so MaxEdges
// keeps a request's graph near 1 GiB: a Graph500 scale-22 input at edge
// factor 16, or a 4 M-node graph of degree 16. A Go out-of-memory is fatal
// to the whole process, so a graph that cannot be built must be refused
// before anything is allocated for it.
const (
	MaxVertices = 1 << maxScale
	MaxEdges    = 1 << 26

	maxScale = 24 // the largest Kronecker scale
)

// Validate checks that the parameters describe a generatable graph, within
// MaxVertices and MaxEdges, without generating it.
func (p Params) Validate() error {
	switch p.Gen {
	case GenKronecker:
		if p.Scale <= 0 || p.Scale > maxScale || p.EdgeFactor <= 0 {
			return fmt.Errorf("graphgen: kronecker needs 0 < scale <= 24 and edge_factor > 0 (got scale=%d edge_factor=%d)", p.Scale, p.EdgeFactor)
		}
		if p.EdgeFactor > MaxEdges>>p.Scale {
			return fmt.Errorf("graphgen: kronecker scale %d at edge_factor %d exceeds the limit of %d edges", p.Scale, p.EdgeFactor, MaxEdges)
		}
	case GenUniform:
		if p.N <= 0 || p.M <= 0 {
			return fmt.Errorf("graphgen: uniform needs n > 0 and m > 0 (got n=%d m=%d)", p.N, p.M)
		}
	case GenPowerLaw:
		if p.N <= 0 || p.M <= 0 || p.Alpha <= 1 {
			return fmt.Errorf("graphgen: powerlaw needs n > 0, m > 0 and alpha > 1 (got n=%d m=%d alpha=%g)", p.N, p.M, p.Alpha)
		}
	default:
		return fmt.Errorf("graphgen: unknown generator %q", p.Gen)
	}
	if n, m := p.Size(); n > MaxVertices || m > MaxEdges {
		return fmt.Errorf("graphgen: %s graph of %d vertices and %d edges exceeds the limit of %d vertices and %d edges", p.Gen, n, m, MaxVertices, MaxEdges)
	}
	return nil
}

// Size returns the vertex and edge counts of the described graph without
// generating it. Valid parameters only: a Kronecker scale beyond the
// limits Validate enforces overflows.
func (p Params) Size() (n, m int) {
	if p.Gen == GenKronecker {
		return 1 << p.Scale, p.EdgeFactor << p.Scale
	}
	return p.N, p.M
}

// Generate validates and builds the described graph.
func (p Params) Generate() (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch p.Gen {
	case GenKronecker:
		return Kronecker(p.Scale, p.EdgeFactor, p.Seed), nil
	case GenUniform:
		return Uniform(p.N, p.M, p.Seed), nil
	default:
		return PowerLaw(p.N, p.M, p.Alpha, p.Seed), nil
	}
}

// Input returns the closure form of p for the in-process harnesses. The
// closure panics on invalid parameters; validate first when the parameters
// came off the wire.
func (p Params) Input() Input {
	return Input{Name: p.Label(), Params: p, Build: func() *Graph {
		g, err := p.Generate()
		if err != nil {
			panic(err)
		}
		return g
	}}
}

// Input is one row of Table 2: a named graph with its generator. Params is
// the declarative description when the input has one (zero for custom
// closures); Build is always usable.
type Input struct {
	Name   string
	Params Params
	Build  func() *Graph
}

// Table2Params returns the declarative descriptions of the scaled-down
// equivalents of the paper's graph inputs: Kron (KR), LiveJournal (LJN),
// Orkut (ORK), Twitter (TW) and Urand (UR). Densities and skews follow
// Table 2's node/edge ratios.
func Table2Params() []Params {
	return []Params{
		{Gen: GenKronecker, Scale: 16, EdgeFactor: 16, Seed: 1, Name: "KR"},
		{Gen: GenPowerLaw, N: 60_000, M: 900_000, Alpha: 2.3, Seed: 2, Name: "LJN"},
		{Gen: GenPowerLaw, N: 40_000, M: 1_600_000, Alpha: 2.6, Seed: 3, Name: "ORK"},
		{Gen: GenPowerLaw, N: 70_000, M: 1_700_000, Alpha: 2.0, Seed: 4, Name: "TW"},
		{Gen: GenUniform, N: 65_536, M: 1_048_576, Seed: 5, Name: "UR"},
	}
}

// Table2Inputs returns Table2Params in closure form.
func Table2Inputs() []Input {
	params := Table2Params()
	inputs := make([]Input, len(params))
	for i, p := range params {
		inputs[i] = p.Input()
	}
	return inputs
}

// SmallInputs returns quick variants for tests and the quickstart example.
func SmallInputs() []Input {
	return []Input{
		Params{Gen: GenKronecker, Scale: 12, EdgeFactor: 8, Seed: 11, Name: "KR-S"}.Input(),
		Params{Gen: GenUniform, N: 4096, M: 32768, Seed: 12, Name: "UR-S"}.Input(),
	}
}

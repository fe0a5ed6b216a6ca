package workloads

import (
	"dvr/internal/graphgen"
	"dvr/internal/interp"
	"dvr/internal/isa"
)

// defaultGAPROI is the timed instruction budget for the GAP kernels.
const defaultGAPROI = 300_000

// gapKernels maps registry names to the GAP builders.
var gapKernels = map[string]func(*graphgen.Graph) *Workload{
	"bc": BC, "bfs": BFS, "cc": CC, "pr": PR, "sssp": SSSP,
}

func init() {
	for name, build := range gapKernels {
		Register(Kernel{Name: name, NeedsGraph: true, Build: build, DefaultROI: defaultGAPROI})
	}
}

// BFS is Algorithm 1 of the paper: top-down breadth-first search over a
// worklist. The outer striding load reads the frontier (wl[i]); the inner
// striding load walks the edge array; the dependent indirect load checks
// visited[u], guarded by a data-dependent branch; inner trip counts are the
// (data-dependent) vertex degrees.
func BFS(g *graphgen.Graph) *Workload {
	m := interp.NewMemory()
	a := newArena()
	off, edges := storeGraph(m, a, g)
	visited := a.alloc(g.N)
	wlA := a.alloc(g.N)
	wlB := a.alloc(g.N)
	start := maxDegreeVertex(g)
	m.Store64(wlA, uint64(start))
	m.Store64(visited+uint64(start)*8, 1)

	b := isa.NewBuilder("bfs")
	b.Li(R0, 1)
	b.Li(R2, int64(wlA))
	b.Li(R14, int64(wlB))
	b.Li(R3, 1)
	b.Li(R4, int64(off))
	b.Li(R5, int64(edges))
	b.Li(R6, int64(visited))
	b.Label("level")
	b.Li(R1, 0)
	b.Li(R13, 0)
	b.Cmp(R7, R1, R3)
	b.Br(isa.GE, R7, "level_done")
	b.Label("outer")
	b.LoadIdx(R8, R2, R1, 0) // v = wl[i]
	b.LoadIdx(R9, R4, R8, 0) // j = off[v]
	b.AddI(R15, R8, 1)
	b.LoadIdx(R10, R4, R15, 0) // end = off[v+1]
	b.Cmp(R7, R9, R10)
	b.Br(isa.GE, R7, "inner_done")
	b.Label("inner")
	b.LoadIdx(R11, R5, R9, 0)  // u = edges[j]   (inner striding load)
	b.LoadIdx(R12, R6, R11, 0) // visited[u]     (dependent indirect load)
	b.Br(isa.NE, R12, "skip")
	b.StoreIdx(R6, R11, 0, R0)   // visited[u] = 1
	b.StoreIdx(R14, R13, 0, R11) // nextwl[nc] = u
	b.AddI(R13, R13, 1)
	b.Label("skip")
	emitWork(b, R15, 4)
	b.AddI(R9, R9, 1)
	b.Cmp(R7, R9, R10)
	b.Br(isa.LT, R7, "inner") // backward conditional branch (LCR/SBB)
	b.Label("inner_done")
	b.AddI(R1, R1, 1)
	b.Cmp(R7, R1, R3)
	b.Br(isa.LT, R7, "outer")
	b.Label("level_done")
	b.CmpI(R7, R13, 0)
	b.Br(isa.EQ, R7, "end")
	b.Mov(R15, R2)
	b.Mov(R2, R14)
	b.Mov(R14, R15)
	b.Mov(R3, R13)
	b.Jmp("level")
	b.Label("end")
	b.Halt()
	return &Workload{Name: "bfs", Prog: b.MustBuild(), Mem: m, Skip: 20_000, ROI: defaultGAPROI,
		Sym: map[string]uint64{"offsets": off, "edges": edges, "visited": visited, "wlA": wlA, "wlB": wlB, "start": uint64(start)}}
}

// BC is the forward (BFS-order path-counting) phase of Brandes' betweenness
// centrality: per edge it loads the neighbour's depth, then diverges three
// ways (newly discovered / same depth / older), accumulating shortest-path
// counts (sigma) with indirect read-modify-writes.
func BC(g *graphgen.Graph) *Workload {
	m := interp.NewMemory()
	a := newArena()
	off, edges := storeGraph(m, a, g)
	depth := a.alloc(2 * g.N) // depth[v] then sigma[v]
	sigmaOff := int64(g.N) * 8
	wlA := a.alloc(g.N)
	wlB := a.alloc(g.N)
	start := maxDegreeVertex(g)
	m.Store64(wlA, uint64(start))
	m.Store64(depth+uint64(start)*8, 1)
	m.Store64(depth+uint64(start)*8+uint64(sigmaOff), 1)

	b := isa.NewBuilder("bc")
	b.Li(R0, 2) // current depth
	b.Li(R2, int64(wlA))
	b.Li(R14, int64(wlB))
	b.Li(R3, 1)
	b.Li(R4, int64(off))
	b.Li(R5, int64(edges))
	b.Li(R6, int64(depth))
	b.Label("level")
	b.Li(R1, 0)
	b.Li(R13, 0)
	b.Cmp(R7, R1, R3)
	b.Br(isa.GE, R7, "level_done")
	b.Label("outer")
	b.LoadIdx(R8, R2, R1, 0) // v = wl[i]
	b.LoadIdx(R9, R4, R8, 0)
	b.AddI(R15, R8, 1)
	b.LoadIdx(R10, R4, R15, 0)
	b.LoadIdx(R8, R6, R8, sigmaOff) // sv = sigma[v]
	b.Cmp(R7, R9, R10)
	b.Br(isa.GE, R7, "inner_done")
	b.Label("inner")
	b.LoadIdx(R11, R5, R9, 0)  // u = edges[j]    (inner striding load)
	b.LoadIdx(R12, R6, R11, 0) // d = depth[u]   (dependent indirect load)
	b.Br(isa.EQ, R12, "newv")
	b.Cmp(R7, R12, R0)
	b.Br(isa.NE, R7, "skip")
	// Same depth: another shortest path; sigma[u] += sv.
	b.LoadIdx(R12, R6, R11, sigmaOff)
	b.Add(R12, R12, R8)
	b.StoreIdx(R6, R11, sigmaOff, R12)
	b.Jmp("skip")
	b.Label("newv")
	b.StoreIdx(R6, R11, 0, R0) // depth[u] = curdepth
	b.LoadIdx(R12, R6, R11, sigmaOff)
	b.Add(R12, R12, R8)
	b.StoreIdx(R6, R11, sigmaOff, R12)
	b.StoreIdx(R14, R13, 0, R11)
	b.AddI(R13, R13, 1)
	b.Label("skip")
	emitWork(b, R15, 4)
	b.AddI(R9, R9, 1)
	b.Cmp(R7, R9, R10)
	b.Br(isa.LT, R7, "inner")
	b.Label("inner_done")
	b.AddI(R1, R1, 1)
	b.Cmp(R7, R1, R3)
	b.Br(isa.LT, R7, "outer")
	b.Label("level_done")
	b.CmpI(R7, R13, 0)
	b.Br(isa.EQ, R7, "end")
	b.Mov(R15, R2)
	b.Mov(R2, R14)
	b.Mov(R14, R15)
	b.Mov(R3, R13)
	b.AddI(R0, R0, 1)
	b.Jmp("level")
	b.Label("end")
	b.Halt()
	return &Workload{Name: "bc", Prog: b.MustBuild(), Mem: m, Skip: 20_000, ROI: defaultGAPROI,
		Sym: map[string]uint64{"offsets": off, "edges": edges, "depth": depth, "sigma": depth + uint64(sigmaOff), "start": uint64(start)}}
}

// CC is connected components by label propagation over an edge list: the
// endpoints stride, the component labels are simple one-level indirections
// (the pattern IMP detects well).
func CC(g *graphgen.Graph) *Workload {
	m := interp.NewMemory()
	a := newArena()
	mEdges := g.M()
	srcA := a.alloc(mEdges)
	dstA := a.alloc(mEdges)
	comp := a.alloc(g.N)
	src := m.Map(srcA, mEdges)
	for v := 0; v < g.N; v++ {
		for e := g.Offsets[v]; e < g.Offsets[v+1]; e++ {
			src[e] = uint64(v)
		}
	}
	copy(m.Map(dstA, mEdges), g.Edges)
	labels := m.Map(comp, g.N)
	for v := range labels {
		labels[v] = uint64(v)
	}

	b := isa.NewBuilder("cc")
	b.Li(R1, 0)
	b.Li(R2, int64(mEdges))
	b.Li(R3, int64(srcA))
	b.Li(R4, int64(dstA))
	b.Li(R5, int64(comp))
	b.Label("top")
	b.LoadIdx(R8, R3, R1, 0)  // u = src[e]   (striding)
	b.LoadIdx(R9, R4, R1, 0)  // v = dst[e]   (striding)
	b.LoadIdx(R10, R5, R8, 0) // cu = comp[u] (indirect)
	b.LoadIdx(R11, R5, R9, 0) // cv = comp[v] (indirect)
	b.Cmp(R7, R10, R11)
	b.Br(isa.LT, R7, "cult")
	b.Br(isa.GT, R7, "cugt")
	b.Jmp("next")
	b.Label("cult")
	b.StoreIdx(R5, R9, 0, R10)
	b.Jmp("next")
	b.Label("cugt")
	b.StoreIdx(R5, R8, 0, R11)
	b.Label("next")
	emitWork(b, R15, 8)
	b.AddI(R1, R1, 1)
	b.Cmp(R7, R1, R2)
	b.Br(isa.LT, R7, "top")
	b.Li(R1, 0)
	b.Jmp("top") // next propagation pass
	return &Workload{Name: "cc", Prog: b.MustBuild(), Mem: m, Skip: 10_000, ROI: defaultGAPROI,
		Sym: map[string]uint64{"src": srcA, "dst": dstA, "comp": comp, "m": uint64(mEdges)}}
}

// PR is pull-style PageRank: per vertex it walks its in-edge list (inner
// striding load) and gathers the neighbours' ranks (dependent indirect
// load), with no control-flow divergence along the chain.
func PR(g *graphgen.Graph) *Workload {
	m := interp.NewMemory()
	a := newArena()
	off, edges := storeGraph(m, a, g)
	rank := a.alloc(g.N)
	next := a.alloc(g.N)
	fill(m, rank, g.N, 1)

	b := isa.NewBuilder("pr")
	b.Li(R1, 0)
	b.Li(R2, int64(g.N))
	b.Li(R4, int64(off))
	b.Li(R5, int64(edges))
	b.Li(R6, int64(rank))
	b.Li(R14, int64(next))
	b.Label("outer")
	b.LoadIdx(R9, R4, R1, 0)
	b.AddI(R15, R1, 1)
	b.LoadIdx(R10, R4, R15, 0)
	b.Li(R13, 0)
	b.Cmp(R7, R9, R10)
	b.Br(isa.GE, R7, "vdone")
	b.Label("inner")
	b.LoadIdx(R11, R5, R9, 0)  // u = edges[j]  (striding)
	b.LoadIdx(R12, R6, R11, 0) // rank[u]       (indirect, FLR)
	b.Add(R13, R13, R12)
	emitWork(b, R3, 4)
	b.AddI(R9, R9, 1)
	b.Cmp(R7, R9, R10)
	b.Br(isa.LT, R7, "inner")
	b.Label("vdone")
	b.ShrI(R13, R13, 1) // damping stand-in
	b.AddI(R13, R13, 1)
	b.StoreIdx(R14, R1, 0, R13)
	b.AddI(R1, R1, 1)
	b.Cmp(R7, R1, R2)
	b.Br(isa.LT, R7, "outer")
	// Next iteration: swap rank arrays.
	b.Mov(R15, R6)
	b.Mov(R6, R14)
	b.Mov(R14, R15)
	b.Li(R1, 0)
	b.Jmp("outer")
	return &Workload{Name: "pr", Prog: b.MustBuild(), Mem: m, Skip: 10_000, ROI: defaultGAPROI,
		Sym: map[string]uint64{"offsets": off, "edges": edges, "rank": rank, "next": next}}
}

// SSSP is worklist-driven Bellman-Ford: edge weights ride next to the edge
// array (same index), the relaxation loads dist[u] indirectly and diverges
// on the comparison outcome.
func SSSP(g *graphgen.Graph) *Workload {
	m := interp.NewMemory()
	a := newArena()
	off := a.alloc(g.N + 1)
	copy(m.Map(off, g.N+1), g.Offsets)
	mEdges := g.M()
	edges := a.alloc(2 * mEdges) // edges[0..m), then weights[0..m)
	ew := m.Map(edges, 2*mEdges)
	copy(ew, g.Edges)
	weightsOff := int64(mEdges) * 8
	s := uint64(77)
	for j := range ew[mEdges:] {
		s = isa.Mix64(s)
		ew[mEdges+j] = 1 + s%16
	}
	dist := a.alloc(g.N)
	const inf = int64(1) << 40
	fill(m, dist, g.N, uint64(inf))
	const wlWords = 1 << 18
	wlA := a.alloc(wlWords)
	wlB := a.alloc(wlWords)
	start := maxDegreeVertex(g)
	m.Store64(wlA, uint64(start))
	m.Store64(dist+uint64(start)*8, 0)

	b := isa.NewBuilder("sssp")
	b.Li(R2, int64(wlA))
	b.Li(R14, int64(wlB))
	b.Li(R3, 1)
	b.Li(R4, int64(off))
	b.Li(R5, int64(edges))
	b.Li(R6, int64(dist))
	b.Label("level")
	b.Li(R1, 0)
	b.Li(R13, 0)
	b.Cmp(R7, R1, R3)
	b.Br(isa.GE, R7, "level_done")
	b.Label("outer")
	b.LoadIdx(R8, R2, R1, 0) // v = wl[i]
	b.LoadIdx(R9, R4, R8, 0)
	b.AddI(R15, R8, 1)
	b.LoadIdx(R10, R4, R15, 0)
	b.LoadIdx(R8, R6, R8, 0) // dv = dist[v] (v dead afterwards)
	b.Cmp(R7, R9, R10)
	b.Br(isa.GE, R7, "inner_done")
	b.Label("inner")
	b.LoadIdx(R11, R5, R9, 0)          // u = edges[j]      (striding)
	b.LoadIdx(R12, R5, R9, weightsOff) // w = weights[j]    (striding)
	b.Add(R12, R12, R8)                // nd = dv + w
	b.LoadIdx(R15, R6, R11, 0)         // du = dist[u]      (indirect)
	b.Cmp(R7, R12, R15)
	b.Br(isa.GE, R7, "skip")
	b.StoreIdx(R6, R11, 0, R12)  // dist[u] = nd
	b.StoreIdx(R14, R13, 0, R11) // push u
	b.AddI(R13, R13, 1)
	b.AndI(R13, R13, wlWords-1) // bounded worklist (wraps rather than grows)
	b.Label("skip")
	emitWork(b, R0, 4)
	b.AddI(R9, R9, 1)
	b.Cmp(R7, R9, R10)
	b.Br(isa.LT, R7, "inner")
	b.Label("inner_done")
	b.AddI(R1, R1, 1)
	b.Cmp(R7, R1, R3)
	b.Br(isa.LT, R7, "outer")
	b.Label("level_done")
	b.CmpI(R7, R13, 0)
	b.Br(isa.EQ, R7, "end")
	b.Mov(R15, R2)
	b.Mov(R2, R14)
	b.Mov(R14, R15)
	b.Mov(R3, R13)
	b.Jmp("level")
	b.Label("end")
	b.Halt()
	return &Workload{Name: "sssp", Prog: b.MustBuild(), Mem: m, Skip: 20_000, ROI: defaultGAPROI,
		Sym: map[string]uint64{"offsets": off, "edges": edges, "weights": edges + uint64(weightsOff), "dist": dist, "start": uint64(start)}}
}

// GAPSpecs returns the five GAP kernels over one graph input. When the
// input carries declarative Params, each spec also carries the equivalent
// Ref, so the suite is wire-transportable.
func GAPSpecs(input graphgen.Input) []Spec {
	g := input.Build()
	mk := func(name string, build func(*graphgen.Graph) *Workload) Spec {
		sp := Spec{
			Name:  name + "_" + input.Name,
			Build: func() *Workload { return build(g) },
			ROI:   defaultGAPROI,
		}
		if !input.Params.Zero() {
			p := input.Params
			sp.Ref = Ref{Kernel: name, Graph: &p, ROI: defaultGAPROI}
		}
		return sp
	}
	return []Spec{
		mk("bc", BC),
		mk("bfs", BFS),
		mk("cc", CC),
		mk("pr", PR),
		mk("sssp", SSSP),
	}
}

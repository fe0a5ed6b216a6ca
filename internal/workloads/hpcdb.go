package workloads

import (
	"dvr/internal/graphgen"
	"dvr/internal/interp"
	"dvr/internal/isa"
)

// defaultHPCROI is the timed instruction budget for the HPC/DB kernels.
const defaultHPCROI = 300_000

// hpcdbKernels maps registry names to the HPC/DB builders, in suite order.
var hpcdbKernels = []struct {
	name  string
	build func() *Workload
}{
	{"camel", Camel},
	{"graph500", Graph500},
	{"hj2", HJ2},
	{"hj8", HJ8},
	{"kangaroo", Kangaroo},
	{"nas-cg", NASCG},
	{"nas-is", NASIS},
	{"randomaccess", RandomAccess},
}

func init() {
	for _, k := range hpcdbKernels {
		build := k.build
		Register(Kernel{
			Name:       k.name,
			Build:      func(*graphgen.Graph) *Workload { return build() },
			DefaultROI: defaultHPCROI,
		})
	}
}

// Camel is the Figure 1 kernel: C[hash(B[hash(A[i])])]++ — a two-level
// indirect chain through hash functions, the motivating pattern of Vector
// Runahead.
func Camel() *Workload {
	const n = 1 << 20   // keys
	const tbl = 1 << 21 // B and C entries
	m := interp.NewMemory()
	a := newArena()
	keys := a.alloc(n)
	bTbl := a.alloc(tbl)
	cTbl := a.alloc(tbl)
	randWords(m, randArray{keys, n, 101, 1 << 32}, randArray{bTbl, tbl, 102, 1 << 32})

	b := isa.NewBuilder("camel")
	b.Li(R1, 0)
	b.Li(R2, n)
	b.Li(R3, int64(keys))
	b.Li(R4, int64(bTbl))
	b.Li(R5, int64(cTbl))
	b.Li(R11, tbl-1)
	b.Label("top")
	b.LoadIdx(R8, R3, R1, 0) // a = A[i]       (striding)
	emitHash(b, R8, R12)
	b.Op3(isa.And, R8, R8, R11)
	b.LoadIdx(R9, R4, R8, 0) // b = B[h1]      (indirect level 1)
	emitHash(b, R9, R12)
	b.Op3(isa.And, R9, R9, R11)
	b.LoadIdx(R10, R5, R9, 0) // c = C[h2]     (indirect level 2, FLR)
	b.AddI(R10, R10, 1)
	b.StoreIdx(R5, R9, 0, R10)
	emitWork(b, R15, 24)
	b.AddI(R1, R1, 1)
	b.Cmp(R7, R1, R2)
	b.Br(isa.LT, R7, "top")
	b.Li(R1, 0)
	b.Jmp("top")
	return &Workload{Name: "camel", Prog: b.MustBuild(), Mem: m, Skip: 10_000, ROI: defaultHPCROI,
		Sym: map[string]uint64{"keys": keys, "b": bTbl, "c": cTbl, "n": n, "tbl": tbl}}
}

// Graph500 is the Graph500 top-down BFS step on a Kronecker graph: like
// BFS but also recording parent[u], the reference kernel's signature write.
func Graph500() *Workload {
	g := graphgen.Kronecker(16, 16, 500)
	m := interp.NewMemory()
	a := newArena()
	off, edges := storeGraph(m, a, g)
	visited := a.alloc(2 * g.N) // visited[v] then parent[v]
	parentOff := int64(g.N) * 8
	wlA := a.alloc(g.N)
	wlB := a.alloc(g.N)
	start := maxDegreeVertex(g)
	m.Store64(wlA, uint64(start))
	m.Store64(visited+uint64(start)*8, 1)

	b := isa.NewBuilder("graph500")
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
	b.LoadIdx(R8, R2, R1, 0)
	b.LoadIdx(R9, R4, R8, 0)
	b.AddI(R15, R8, 1)
	b.LoadIdx(R10, R4, R15, 0)
	b.Cmp(R7, R9, R10)
	b.Br(isa.GE, R7, "inner_done")
	b.Label("inner")
	b.LoadIdx(R11, R5, R9, 0)  // u = edges[j]  (striding)
	b.LoadIdx(R12, R6, R11, 0) // visited[u]    (indirect)
	b.Br(isa.NE, R12, "skip")
	b.StoreIdx(R6, R11, 0, R0)
	b.StoreIdx(R6, R11, parentOff, R8) // parent[u] = v
	b.StoreIdx(R14, R13, 0, R11)
	b.AddI(R13, R13, 1)
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
	return &Workload{Name: "graph500", Prog: b.MustBuild(), Mem: m, Skip: 20_000, ROI: defaultHPCROI,
		Sym: map[string]uint64{"offsets": off, "edges": edges, "visited": visited, "parent": visited + uint64(parentOff), "start": uint64(start)}}
}

// hashJoin builds the HJ probe kernel with the given chain depth: each
// probe hashes the key and chases `depth` dependent table lookups.
func hashJoin(name string, depth int) *Workload {
	const n = 1 << 20
	const tbl = 1 << 21
	m := interp.NewMemory()
	a := newArena()
	keys := a.alloc(n)
	ht := a.alloc(tbl)
	randWords(m,
		randArray{keys, n, 201, 1 << 32},
		randArray{ht, tbl, 202, tbl}, // table entries index back into the table
	)

	b := isa.NewBuilder(name)
	b.Li(R1, 0)
	b.Li(R2, n)
	b.Li(R3, int64(keys))
	b.Li(R4, int64(ht))
	b.Li(R11, tbl-1)
	b.Label("top")
	b.LoadIdx(R8, R3, R1, 0) // k = keys[i]  (striding)
	for d := 0; d < depth; d++ {
		emitHash(b, R8, R12)
		b.Op3(isa.And, R8, R8, R11)
		b.LoadIdx(R8, R4, R8, 0) // chase one level
	}
	b.Add(R10, R10, R8)
	if depth <= 4 {
		emitWork(b, R15, 20)
	} else {
		emitWork(b, R15, 8)
	}
	b.AddI(R1, R1, 1)
	b.Cmp(R7, R1, R2)
	b.Br(isa.LT, R7, "top")
	b.Li(R1, 0)
	b.Jmp("top")
	return &Workload{Name: name, Prog: b.MustBuild(), Mem: m, Skip: 10_000, ROI: defaultHPCROI,
		Sym: map[string]uint64{"keys": keys, "ht": ht, "n": n, "tbl": tbl}}
}

// HJ2 is the hash-join probe with a 2-deep dependent chain.
func HJ2() *Workload { return hashJoin("hj2", 2) }

// HJ8 is the hash-join probe with an 8-deep dependent chain.
func HJ8() *Workload { return hashJoin("hj8", 8) }

// Kangaroo hops through two dependent index tables and then diverges on
// the parity of the result, loading from one of two payload arrays.
func Kangaroo() *Workload {
	const n = 1 << 20
	const tbl = 1 << 21
	const pay = 1 << 20
	m := interp.NewMemory()
	a := newArena()
	keys := a.alloc(n)
	n1 := a.alloc(tbl)
	n2 := a.alloc(tbl)
	cd := a.alloc(2 * pay) // C then D
	dOff := int64(pay) * 8
	randWords(m,
		randArray{keys, n, 301, tbl},
		randArray{n1, tbl, 302, tbl},
		randArray{n2, tbl, 303, pay},
		randArray{cd, 2 * pay, 304, 1 << 32},
	)

	b := isa.NewBuilder("kangaroo")
	b.Li(R1, 0)
	b.Li(R2, n)
	b.Li(R3, int64(keys))
	b.Li(R4, int64(n1))
	b.Li(R5, int64(n2))
	b.Li(R6, int64(cd))
	b.Label("top")
	b.LoadIdx(R8, R3, R1, 0)  // k = keys[i]  (striding)
	b.LoadIdx(R9, R4, R8, 0)  // p = N1[k]
	b.LoadIdx(R10, R5, R9, 0) // q = N2[p]
	emitWork(b, R15, 20)
	b.AndI(R7, R10, 1)
	b.Br(isa.EQ, R7, "even")
	b.LoadIdx(R12, R6, R10, 0) // C[q]
	b.Jmp("acc")
	b.Label("even")
	b.LoadIdx(R12, R6, R10, dOff) // D[q]
	b.Label("acc")
	b.Add(R13, R13, R12)
	b.AddI(R1, R1, 1)
	b.Cmp(R7, R1, R2)
	b.Br(isa.LT, R7, "top")
	b.Li(R1, 0)
	b.Jmp("top")
	return &Workload{Name: "kangaroo", Prog: b.MustBuild(), Mem: m, Skip: 10_000, ROI: defaultHPCROI,
		Sym: map[string]uint64{"keys": keys, "n1": n1, "n2": n2, "cd": cd}}
}

// NASCG is the conjugate-gradient sparse matrix-vector product: per row,
// a striding walk of the column indices with an indirect gather of x[col].
func NASCG() *Workload {
	const rows = 1 << 14
	const rowLen = 48
	const nnz = rows * rowLen
	const xn = 1 << 20
	m := interp.NewMemory()
	a := newArena()
	rp := a.alloc(rows + 1)
	y := a.alloc(rows)
	yOff := int64(y) - int64(rp)
	col := a.alloc(2 * nnz) // col[0..nnz) then aval[0..nnz)
	avOff := int64(nnz) * 8
	x := a.alloc(xn)
	rowPtr := m.Map(rp, rows+1)
	for r := range rowPtr {
		rowPtr[r] = uint64(r * rowLen)
	}
	randWords(m,
		randArray{col, nnz, 401, xn},
		randArray{col + uint64(avOff), nnz, 402, 1 << 16},
		randArray{x, xn, 403, 1 << 16},
	)

	b := isa.NewBuilder("nas-cg")
	b.Li(R1, 0)
	b.Li(R2, rows)
	b.Li(R4, int64(rp))
	b.Li(R5, int64(col))
	b.Li(R6, int64(x))
	b.Label("outer")
	b.LoadIdx(R9, R4, R1, 0)
	b.AddI(R15, R1, 1)
	b.LoadIdx(R10, R4, R15, 0)
	b.Li(R13, 0)
	b.Cmp(R7, R9, R10)
	b.Br(isa.GE, R7, "rdone")
	b.Label("inner")
	b.LoadIdx(R11, R5, R9, 0)     // c = col[j]   (striding)
	b.LoadIdx(R12, R6, R11, 0)    // xv = x[c]    (indirect, FLR)
	b.LoadIdx(R15, R5, R9, avOff) // av = a[j]
	b.Mul(R12, R12, R15)
	b.Add(R13, R13, R12)
	emitWork(b, R3, 12)
	b.AddI(R9, R9, 1)
	b.Cmp(R7, R9, R10)
	b.Br(isa.LT, R7, "inner")
	b.Label("rdone")
	b.StoreIdx(R4, R1, yOff, R13)
	b.AddI(R1, R1, 1)
	b.Cmp(R7, R1, R2)
	b.Br(isa.LT, R7, "outer")
	b.Li(R1, 0)
	b.Jmp("outer")
	return &Workload{Name: "nas-cg", Prog: b.MustBuild(), Mem: m, Skip: 10_000, ROI: defaultHPCROI,
		Sym: map[string]uint64{"rp": rp, "col": col, "aval": col + uint64(avOff), "x": x, "y": y, "rows": rows, "rowlen": rowLen}}
}

// NASIS is the integer-sort histogram: count[key[i]]++, one level of
// simple indirection (the pattern IMP handles).
func NASIS() *Workload {
	const n = 1 << 21
	const buckets = 1 << 21
	m := interp.NewMemory()
	a := newArena()
	keys := a.alloc(n)
	count := a.alloc(buckets)
	randWords(m, randArray{keys, n, 501, buckets})

	b := isa.NewBuilder("nas-is")
	b.Li(R1, 0)
	b.Li(R2, n)
	b.Li(R3, int64(keys))
	b.Li(R4, int64(count))
	b.Label("top")
	b.LoadIdx(R8, R3, R1, 0) // k = key[i]   (striding)
	b.LoadIdx(R9, R4, R8, 0) // count[k]     (indirect)
	b.AddI(R9, R9, 1)
	b.StoreIdx(R4, R8, 0, R9)
	emitWork(b, R15, 14)
	b.AddI(R1, R1, 1)
	b.Cmp(R7, R1, R2)
	b.Br(isa.LT, R7, "top")
	b.Li(R1, 0)
	b.Jmp("top")
	return &Workload{Name: "nas-is", Prog: b.MustBuild(), Mem: m, Skip: 10_000, ROI: defaultHPCROI,
		Sym: map[string]uint64{"keys": keys, "count": count, "n": n, "buckets": buckets}}
}

// RandomAccess is HPCC GUPS: T[r & mask] ^= r over a table far larger than
// the LLC.
func RandomAccess() *Workload {
	const n = 1 << 20
	const tbl = 1 << 22
	m := interp.NewMemory()
	a := newArena()
	ran := a.alloc(n)
	t := a.alloc(tbl)
	randWords(m, randArray{ran, n, 601, 0}, randArray{t, tbl, 602, 0})

	b := isa.NewBuilder("randomaccess")
	b.Li(R1, 0)
	b.Li(R2, n)
	b.Li(R3, int64(ran))
	b.Li(R4, int64(t))
	b.Li(R11, tbl-1)
	b.Label("top")
	b.LoadIdx(R8, R3, R1, 0) // r = ran[i]   (striding)
	b.Op3(isa.And, R9, R8, R11)
	b.LoadIdx(R10, R4, R9, 0) // T[r&mask]   (indirect)
	b.Xor(R10, R10, R8)
	b.StoreIdx(R4, R9, 0, R10)
	emitWork(b, R15, 14)
	b.AddI(R1, R1, 1)
	b.Cmp(R7, R1, R2)
	b.Br(isa.LT, R7, "top")
	b.Li(R1, 0)
	b.Jmp("top")
	return &Workload{Name: "randomaccess", Prog: b.MustBuild(), Mem: m, Skip: 10_000, ROI: defaultHPCROI,
		Sym: map[string]uint64{"ran": ran, "t": t, "n": n, "tbl": tbl}}
}

// HPCDBSpecs returns the eight hpc-db benchmarks, each carrying its
// declarative Ref.
func HPCDBSpecs() []Spec {
	specs := make([]Spec, 0, len(hpcdbKernels))
	for _, k := range hpcdbKernels {
		specs = append(specs, Spec{
			Name:  k.name,
			Build: k.build,
			ROI:   defaultHPCROI,
			Ref:   Ref{Kernel: k.name, ROI: defaultHPCROI},
		})
	}
	return specs
}

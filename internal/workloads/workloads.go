// Package workloads implements the paper's 13 benchmarks as micro-ISA
// programs with their memory images: the five GAP graph kernels (bc, bfs,
// cc, pr, sssp) and the eight HPC/database kernels (camel, graph500, hj2,
// hj8, kangaroo, nas-cg, nas-is, randomaccess). Each kernel reproduces the
// dynamic structure DVR keys off: striding loads, dependent indirect
// chains, compare-plus-backward-branch loops, and (where the original has
// them) data-dependent inner-loop trip counts and control-flow divergence.
package workloads

import (
	"sync"

	"dvr/internal/graphgen"
	"dvr/internal/interp"
	"dvr/internal/isa"
)

// Register aliases used by the kernels.
const (
	R0 isa.Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
)

// Workload is an instantiated benchmark: a program plus the memory image it
// runs against. Because the main thread's stores mutate the image, build a
// fresh Workload per simulation run.
type Workload struct {
	Name string
	Prog *isa.Program
	Mem  *interp.Memory
	Skip uint64 // functional fast-forward before the timed region
	ROI  uint64 // suggested timed instruction count
	// Sym maps array names to their base addresses in the memory image,
	// for inspection and verification.
	Sym map[string]uint64
}

// Frontend returns the workload's instruction source, fast-forwarded past
// the untimed warmup region. Call once per Workload instance. A zero Skip
// means no fast-forward (interp.Run treats 0 as "run everything", which
// would consume the whole program before the timed region started).
func (w *Workload) Frontend() *interp.Interp {
	it := interp.New(w.Prog, w.Mem)
	if w.Skip > 0 {
		it.Run(w.Skip)
	}
	return it
}

// Fork returns a copy of the workload over a copy-on-write fork of its
// memory image. Simulations mutate the image they run against, so sharing
// one built Workload across runs requires a Fork per run; the pristine
// base is built once and never simulated directly. Forks of one base may
// run concurrently.
func (w *Workload) Fork() *Workload {
	c := *w
	c.Mem = w.Mem.Fork()
	return &c
}

// Spec is a buildable benchmark for the experiment harness. Build is the
// in-process form; Ref, when set (the built-in suites set it), is the
// equivalent declarative form that can be serialized, shipped to a dvrd
// server and hashed into a cache key. A Spec with a zero Ref (custom
// closure) still runs locally but cannot cross a process boundary.
type Spec struct {
	Name  string
	Build func() *Workload
	ROI   uint64
	Ref   Ref
}

// WithROI returns the spec with its timed budget (and its Ref's, so the
// declarative form stays faithful) replaced.
func (s Spec) WithROI(roi uint64) Spec {
	s.ROI = roi
	if s.Ref.Kernel != "" {
		s.Ref.ROI = roi
	}
	return s
}

// arena hands out non-overlapping, page-aligned memory regions.
type arena struct{ next uint64 }

func newArena() *arena { return &arena{next: 1 << 20} }

// alloc reserves n 64-bit words and returns the base address.
func (a *arena) alloc(n int) uint64 {
	addr := a.next
	a.next += uint64(n) * 8
	a.next = (a.next + 4095) &^ 4095
	return addr
}

// storeGraph writes g's CSR arrays into memory and returns their bases.
func storeGraph(m *interp.Memory, a *arena, g *graphgen.Graph) (offBase, edgeBase uint64) {
	offBase = a.alloc(g.N + 1)
	copy(m.Map(offBase, g.N+1), g.Offsets)
	edgeBase = a.alloc(len(g.Edges))
	copy(m.Map(edgeBase, len(g.Edges)), g.Edges)
	return offBase, edgeBase
}

// maxDegreeVertex returns the vertex with the highest out-degree: the BFS
// and SSSP source, so traversals reach the bulk of the graph quickly.
func maxDegreeVertex(g *graphgen.Graph) int {
	best, bestDeg := 0, -1
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}

// fill writes n words of val starting at base.
func fill(m *interp.Memory, base uint64, n int, val uint64) {
	words := m.Map(base, n)
	for i := range words {
		words[i] = val
	}
}

// randArray is one array of deterministic pseudo-random words: n words at
// base, word i the next value of the chain s = Mix64(s+i) from s = seed,
// reduced modulo mod when mod is nonzero.
type randArray struct {
	base uint64
	n    int
	seed uint64
	mod  uint64
}

// randWords maps each array, in order, and fills them all at once, one
// goroutine per array. Each array's chain is serial and its own, so the
// image does not depend on scheduling or GOMAXPROCS.
func randWords(m *interp.Memory, arrays ...randArray) {
	words := make([][]uint64, len(arrays))
	for i, ra := range arrays {
		words[i] = m.Map(ra.base, ra.n)
	}
	var wg sync.WaitGroup
	for i, ra := range arrays {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ra.fill(words[i])
		}()
	}
	wg.Wait()
}

// fill writes the array's chain into words. A power-of-two mod (most
// arrays) is a mask instead of a division.
func (ra randArray) fill(words []uint64) {
	mask, mod := ^uint64(0), ra.mod
	if mod&(mod-1) == 0 { // power of two, or 0: no reduction
		mask, mod = mod-1, 0
	}
	s := ra.seed
	for i := range words {
		s = isa.Mix64(s + uint64(i))
		v := s & mask
		if mod != 0 {
			v %= mod
		}
		words[i] = v
	}
}

// emitHash emits an inlined multi-instruction integer mix of r (two
// xor-shift-multiply rounds), as a compiled hash function would appear in
// the instruction stream. It preserves the dependence chain through r, so
// DVR's taint tracking follows it; tmp is clobbered.
func emitHash(b *isa.Builder, r, tmp isa.Reg) {
	b.ShrI(tmp, r, 30)
	b.Xor(r, r, tmp)
	b.MulI(r, r, 0x2545f4914f6cdd1d)
	b.ShrI(tmp, r, 27)
	b.Xor(r, r, tmp)
	b.MulI(r, r, 0x27220a95fe72bd39)
}

// emitWork emits n dependent single-cycle ALU instructions on a scratch
// register: the address computation, bookkeeping and spill traffic that
// surrounds the memory chain in the real compiled kernels. It keeps the
// simulated per-iteration instruction counts realistic so the baseline
// core's window covers a realistic number of loop iterations.
func emitWork(b *isa.Builder, scratch isa.Reg, n int) {
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			b.AddI(scratch, scratch, 1)
		} else {
			b.OpI(isa.Xor, scratch, scratch, 0x5bd1)
		}
	}
}

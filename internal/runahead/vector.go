package runahead

import (
	"math/bits"

	"dvr/internal/interp"
	"dvr/internal/isa"
	"dvr/internal/mem"
	"dvr/internal/trace"
)

// laneVec holds one value per scalar-equivalent lane.
type laneVec [MaxLanes]uint64

// vecState is the register state of the vector-runahead subthread: the
// VRAT maps each architectural register either to a single scalar physical
// register (shared by all lanes) or to a set of vector physical registers
// holding one value per lane. The taint bitmap is the Vector Taint Tracker.
type vecState struct {
	scalar [isa.NumRegs]uint64
	vec    [isa.NumRegs]*laneVec
	taint  uint16 // VTT: bit r set => register r is vectorized
	lanes  int    // lanes in use this episode (<= MaxLanes)
	active Mask   // current activity mask (divergence)
}

func newVecState(regs [isa.NumRegs]uint64, lanes int) vecState {
	return vecState{scalar: regs, lanes: lanes, active: FullMask(lanes)}
}

func (s *vecState) isVec(r isa.Reg) bool { return s.taint&(1<<uint(r)) != 0 }

// get returns register r's value in the given lane.
func (s *vecState) get(r isa.Reg, lane int) uint64 {
	if s.isVec(r) {
		return s.vec[r][lane]
	}
	return s.scalar[r]
}

// setScalar writes r as a scalar (all lanes), clearing its taint: the
// WAW-by-a-scalar case where the VRAT renames back to a scalar physical
// register.
func (s *vecState) setScalar(r isa.Reg, v uint64) {
	s.taint &^= 1 << uint(r)
	s.scalar[r] = v
}

// vectorize converts r to vector form, broadcasting its scalar value, and
// returns the lane array. This is the VRAT allocating 16 fresh vector
// physical registers.
func (s *vecState) vectorize(r isa.Reg) *laneVec {
	if !s.isVec(r) {
		lv := new(laneVec)
		for i := 0; i < s.lanes; i++ {
			lv[i] = s.scalar[r]
		}
		s.vec[r] = lv
		s.taint |= 1 << uint(r)
	}
	return s.vec[r]
}

// diverged reports whether only a subset of this episode's lanes is active,
// in which case even untainted register writes must be renamed per lane
// (§4.2.3).
func (s *vecState) diverged() bool { return s.active.Count() != s.lanes }

// VecConfig parameterizes one vector-runahead execution.
type VecConfig struct {
	Reconverge bool // DVR: GPU-style reconvergence stack; false: VR first-lane
	MaxSteps   int  // instruction timeout (the paper uses 200)
	StackDepth int  // reconvergence stack entries (the paper uses 8)
	Src        mem.Source

	MulLat, DivLat, HashLat uint64
}

// DefaultVecConfig returns the paper's subthread parameters.
func DefaultVecConfig() VecConfig {
	return VecConfig{
		Reconverge: true,
		MaxSteps:   200,
		StackDepth: 8,
		Src:        mem.SrcRunahead,
		MulLat:     3,
		DivLat:     18,
		HashLat:    3,
	}
}

// vecRun executes speculatively vectorized code: it interprets the program
// over N lanes, issuing gathers through the memory hierarchy with the
// subthread's in-order timing (the Vector Issue Register issues one vector
// uop per cycle; dependants wait on per-register ready cycles).
type vecRun struct {
	prog *isa.Program
	srcs []uint16 // prog.SrcMasks()
	fmem *interp.Memory
	hier *mem.Hierarchy
	cfg  VecConfig

	// rpt, when set, lets the subthread speculatively vectorize additional
	// striding loads it encounters (§4.1.1: multiple strides in the same
	// loop, e.g. bounds arrays or co-indexed value arrays). laneOffset is
	// the iteration distance of lane 0 from the main thread (1 for normal
	// episodes, 0 for Nested Discovery Mode).
	rpt        *RPT
	laneOffset int

	st       vecState
	regReady [isa.NumRegs]uint64   // scalar-register ready cycles
	vecReady [isa.NumRegs]*laneVec // per-lane ready cycles for vectorized regs
	cursor   uint64
	stack    []reconvEntry

	steps      int
	uops       uint64
	prefetches uint64
	timedOut   bool
	stackDrops int

	// tr receives vector-batch spans and reconvergence instants (nil-safe).
	tr *trace.Recorder
}

type reconvEntry struct {
	pc   int
	mask Mask
}

func newVecRun(prog *isa.Program, srcs []uint16, fmem *interp.Memory, hier *mem.Hierarchy, cfg VecConfig, st vecState, start uint64) *vecRun {
	v := &vecRun{prog: prog, srcs: srcs, fmem: fmem, hier: hier, cfg: cfg, st: st, cursor: start}
	for i := range v.regReady {
		v.regReady[i] = start
	}
	return v
}

// execOpts controls one exec invocation.
type execOpts struct {
	startPC      int
	addrOverride *laneVec // per-lane addresses for the first (striding) load
	stridePC     int      // group terminates when control returns here (-1: none)
	flrPC        int      // group terminates after executing this load (-1: none)
	stopBefore   int      // pause before executing this pc (-1: none); NDM hand-off
}

// execOutcome reports how exec ended.
type execOutcome struct {
	reachedStop bool // paused at opts.stopBefore
	pc          int  // pc at pause
}

// popGroup resumes the next divergent lane group from the reconvergence
// stack. It reports whether a group was available.
func (v *vecRun) popGroup(pc *int) bool {
	for len(v.stack) > 0 {
		e := v.stack[len(v.stack)-1]
		v.stack = v.stack[:len(v.stack)-1]
		if e.mask.Empty() {
			continue
		}
		v.st.active = e.mask
		*pc = e.pc
		v.tr.Emit(trace.EvReconverge, v.cursor, 0, e.pc, uint64(e.mask.Count()), 0)
		return true
	}
	return false
}

// exec runs vectorized execution according to opts, wrapping the batch in
// a vector-batch trace span. It mutates the subthread state; the caller
// reads cursor/steps/prefetches afterwards.
func (v *vecRun) exec(opts execOpts) execOutcome {
	start := v.cursor
	out := v.execLoop(opts)
	v.tr.Emit(trace.EvVectorBatch, start, v.cursor, opts.startPC, uint64(v.st.lanes), 0)
	return out
}

func (v *vecRun) execLoop(opts execOpts) execOutcome {
	pc := opts.startPC
	firstInst := true
	for {
		if v.steps >= v.cfg.MaxSteps {
			v.timedOut = true
			return execOutcome{}
		}
		if pc < 0 || pc >= len(v.prog.Code) {
			if !v.popGroup(&pc) {
				return execOutcome{}
			}
			continue
		}
		if !firstInst && pc == opts.stopBefore {
			return execOutcome{reachedStop: true, pc: pc}
		}
		in := v.prog.Code[pc]
		v.steps++

		var override *laneVec
		if firstInst {
			override = opts.addrOverride
		}
		nextPC, terminated := v.step(pc, in, override)
		firstInst = false

		// Group termination: the last indirect load of the chain (FLR) was
		// executed, or control looped back to the striding load.
		done := terminated ||
			(pc == opts.flrPC) ||
			(nextPC == opts.stridePC && opts.stridePC >= 0)
		if done {
			if !v.popGroup(&pc) {
				return execOutcome{}
			}
			continue
		}
		pc = nextPC
	}
}

// readyAt returns the cycle register r's value is available in the given
// lane.
func (v *vecRun) readyAt(r isa.Reg, lane int) uint64 {
	if v.st.isVec(r) && v.vecReady[r] != nil {
		return v.vecReady[r][lane]
	}
	return v.regReady[r]
}

// groupReady returns the cycle at which all of uop group g's active lanes
// have their source operands, the register set srcs, ready.
func (v *vecRun) groupReady(srcs uint16, g int) uint64 {
	var t uint64
	for lane := g * VectorWidth; lane < (g+1)*VectorWidth && lane < v.st.lanes; lane++ {
		if !v.st.active.Get(lane) {
			continue
		}
		for m := srcs; m != 0; m &= m - 1 {
			if rt := v.readyAt(isa.Reg(bits.TrailingZeros16(m)), lane); rt > t {
				t = rt
			}
		}
	}
	return t
}

// vecReadyFor returns (allocating if needed) the per-lane ready array for a
// vectorized destination register.
func (v *vecRun) vecReadyFor(r isa.Reg) *laneVec {
	if v.vecReady[r] == nil {
		v.vecReady[r] = new(laneVec)
		for i := range v.vecReady[r] {
			v.vecReady[r][i] = v.regReady[r]
		}
	}
	return v.vecReady[r]
}

// step executes one instruction over the active lanes and returns the next
// pc for the current lane group and whether execution terminated (Halt).
// Timing follows the Vector Issue Register (§4.2.2): the instruction's
// vector copies issue in order, one per cycle, but each copy waits only for
// its own lanes' operands, so the 16 AVX-512 copies of consecutive
// dependent instructions overlap.
func (v *vecRun) step(pc int, in isa.Inst, addrOverride *laneVec) (nextPC int, terminated bool) {
	nextPC = pc + 1
	st := &v.st

	srcs := v.srcs[pc]
	anyVec := srcs&st.taint != 0
	vectorWrite := anyVec || addrOverride != nil || st.diverged()

	uopCount := uint64(1)
	if vectorWrite {
		uopCount = uint64((st.lanes + VectorWidth - 1) / VectorWidth)
		if uopCount == 0 {
			uopCount = 1
		}
	}
	v.uops += uopCount

	latFor := func() uint64 {
		switch in.Op {
		case isa.Mul:
			return v.cfg.MulLat
		case isa.Div:
			return v.cfg.DivLat
		case isa.Hash:
			return v.cfg.HashLat
		default:
			return 1
		}
	}

	// Scalar issue time (used by scalar ops and control flow).
	scalarReady := v.cursor
	for m := srcs &^ st.taint; m != 0; m &= m - 1 {
		if r := v.regReady[bits.TrailingZeros16(m)]; r > scalarReady {
			scalarReady = r
		}
	}

	switch in.Op {
	case isa.Nop:
		v.cursor++
	case isa.Halt:
		v.cursor++
		return nextPC, true

	case isa.Load, isa.LoadIdx:
		addrOf := func(lane int) uint64 {
			if addrOverride != nil {
				return addrOverride[lane]
			}
			a := st.get(in.Src1, lane) + uint64(in.Imm)
			if in.Op == isa.LoadIdx {
				a += st.get(in.Src2, lane) * 8
			}
			return a
		}
		if !vectorWrite {
			addr := addrOf(0)
			// A scalar-addressed load that the stride detector knows to be
			// striding is vectorized from its stride: the bounds array or a
			// co-indexed value array of the same loop (§4.1.1).
			if v.rpt != nil {
				if e := v.rpt.Lookup(pc); e != nil && e.Confident() {
					ov := new(laneVec)
					for k := 0; k < st.lanes; k++ {
						ov[k] = uint64(int64(addr) + int64(k+v.laneOffset)*e.Stride)
					}
					addrOverride = ov
					vectorWrite = true
					uopCount = uint64((st.lanes + VectorWidth - 1) / VectorWidth)
					v.uops += uopCount - 1
				}
			}
			if !vectorWrite {
				// Scalar load shared by all lanes.
				res := v.hier.RunaheadAccess(addr, scalarReady, v.cfg.Src)
				if res.Level != mem.LvlL1 || res.Merged {
					v.prefetches++
				}
				st.setScalar(in.Dst, v.fmem.Load64(addr))
				v.regReady[in.Dst] = res.Done
				v.vecReady[in.Dst] = nil
				v.cursor = scalarReady + 1
				return nextPC, false
			}
		}
		// Gather: one scalar load per active lane, split across vector
		// copies that issue independently as their address lanes become
		// ready.
		dst := st.vectorize(in.Dst)
		dstReady := v.vecReadyFor(in.Dst)
		groups := (st.lanes + VectorWidth - 1) / VectorWidth
		cur := v.cursor
		for g := 0; g < groups; g++ {
			at := cur
			var srcT uint64
			if addrOverride == nil {
				srcT = v.groupReady(srcs, g)
			} else {
				srcT = scalarReady
			}
			if srcT > at {
				at = srcT
			}
			cur = at + 1
			for lane := g * VectorWidth; lane < (g+1)*VectorWidth && lane < st.lanes; lane++ {
				if !st.active.Get(lane) {
					continue
				}
				addr := addrOf(lane)
				res := v.hier.RunaheadAccess(addr, at, v.cfg.Src)
				if res.Level != mem.LvlL1 || res.Merged {
					v.prefetches++
				}
				dst[lane] = v.fmem.Load64(addr)
				dstReady[lane] = res.Done
			}
		}
		v.cursor = cur
		return nextPC, false

	case isa.Store, isa.StoreIdx:
		// Runahead is transient: stores compute addresses but neither write
		// memory nor prefetch.
		v.cursor += uopCount
		return nextPC, false

	case isa.Br:
		if in.Cond == isa.Always {
			v.cursor++
			return in.Target, false
		}
		if !st.isVec(in.Src1) {
			v.cursor = scalarReady + 1
			if in.Cond.Eval(int64(st.scalar[in.Src1])) {
				return in.Target, false
			}
			return nextPC, false
		}
		// Vectorized condition: the branch resolves when all active lanes'
		// conditions are known.
		brReady := v.cursor
		for lane := 0; lane < st.lanes; lane++ {
			if st.active.Get(lane) {
				if rt := v.readyAt(in.Src1, lane); rt > brReady {
					brReady = rt
				}
			}
		}
		v.cursor = brReady + 1
		// Per-lane outcomes.
		var takenMask Mask
		for lane := 0; lane < st.lanes; lane++ {
			if st.active.Get(lane) && in.Cond.Eval(int64(st.vec[in.Src1][lane])) {
				takenMask.Set(lane)
			}
		}
		takenMask = takenMask.And(st.active)
		notTaken := st.active.AndNot(takenMask)
		switch {
		case notTaken.Empty():
			return in.Target, false
		case takenMask.Empty():
			return nextPC, false
		}
		// Divergence. Follow the first active lane's direction.
		first := st.active.First()
		followTaken := takenMask.Get(first)
		var follow, other Mask
		var otherPC int
		if followTaken {
			follow, other, otherPC = takenMask, notTaken, nextPC
			nextPC = in.Target
		} else {
			follow, other, otherPC = notTaken, takenMask, in.Target
		}
		if v.cfg.Reconverge && len(v.stack) < v.cfg.StackDepth {
			v.stack = append(v.stack, reconvEntry{pc: otherPC, mask: other})
		} else if v.cfg.Reconverge {
			v.stackDrops++
		}
		// In VR (non-reconverging) mode the divergent lanes are invalidated.
		st.active = follow
		return nextPC, false

	default:
		// Arithmetic, compares, moves, hashes.
		lat := latFor()
		src2 := func(lane int) uint64 {
			if in.UseImm {
				return uint64(in.Imm)
			}
			return st.get(in.Src2, lane)
		}
		compute := func(lane int) uint64 {
			a := st.get(in.Src1, lane)
			switch in.Op {
			case isa.Li:
				return uint64(in.Imm)
			case isa.Mov:
				return a
			case isa.Hash:
				return isa.Mix64(a)
			case isa.Add:
				return a + src2(lane)
			case isa.Sub, isa.Cmp:
				return a - src2(lane)
			case isa.Mul:
				return a * src2(lane)
			case isa.Div:
				d := src2(lane)
				if d == 0 {
					return 0
				}
				return a / d
			case isa.And:
				return a & src2(lane)
			case isa.Or:
				return a | src2(lane)
			case isa.Xor:
				return a ^ src2(lane)
			case isa.Shl:
				return a << (src2(lane) & 63)
			case isa.Shr:
				return a >> (src2(lane) & 63)
			}
			return 0
		}
		if !vectorWrite {
			st.setScalar(in.Dst, compute(0))
			v.regReady[in.Dst] = scalarReady + lat
			v.vecReady[in.Dst] = nil
			v.cursor = scalarReady + 1
			return nextPC, false
		}
		dst := st.vectorize(in.Dst)
		dstReady := v.vecReadyFor(in.Dst)
		groups := (st.lanes + VectorWidth - 1) / VectorWidth
		cur := v.cursor
		for g := 0; g < groups; g++ {
			at := cur
			if srcT := v.groupReady(srcs, g); srcT > at {
				at = srcT
			}
			if scalarReady > at {
				at = scalarReady
			}
			cur = at + 1
			for lane := g * VectorWidth; lane < (g+1)*VectorWidth && lane < st.lanes; lane++ {
				if st.active.Get(lane) {
					dst[lane] = compute(lane)
					dstReady[lane] = at + lat
				}
			}
		}
		v.cursor = cur
		return nextPC, false
	}
	return nextPC, false
}

// scalarSkip runs scalar execution from pc (the NDM phase that skips the
// remaining inner-loop iterations after the altered branch), looking for a
// confident outer striding load: a load whose RPT entry is confident and
// whose PC is below innerPC (the ILR). It returns the pc of that load, or
// -1 if none is found within the step budget. Scalar loads encountered on
// the way still prefetch.
func (v *vecRun) scalarSkip(pc int, rpt *RPT, innerPC int) int {
	for v.steps < v.cfg.MaxSteps {
		if pc < 0 || pc >= len(v.prog.Code) {
			return -1
		}
		in := v.prog.Code[pc]
		if in.Op.IsLoad() {
			if e := rpt.Lookup(pc); e != nil && e.Confident() && pc < innerPC {
				return pc
			}
		}
		if in.Op == isa.Halt {
			return -1
		}
		next, term := v.step(pc, in, nil)
		v.steps++
		if term {
			return -1
		}
		pc = next
	}
	v.timedOut = true
	return -1
}

package interp

import (
	"fmt"

	"dvr/internal/isa"
)

// State is the architectural register state of a hardware thread.
type State struct {
	Regs   [isa.NumRegs]uint64
	PC     int
	Halted bool
}

// DynInst is one dynamically executed instruction: the static instruction
// plus the values the timing model needs (effective address, branch outcome).
type DynInst struct {
	Seq    uint64 // dynamic instruction number, starting at 0
	PC     int
	Inst   isa.Inst
	Addr   uint64 // effective address for loads/stores
	Taken  bool   // branch outcome
	NextPC int    // PC of the next dynamic instruction
	Val    uint64 // value written to Dst (loads/ALU), or stored value
}

// Interp functionally executes a program against a Memory. Multiple
// interpreters may share one Memory (the runahead subthread reads the
// memory image the main thread is committing into).
type Interp struct {
	Prog *isa.Program
	Mem  *Memory
	St   State
	Seq  uint64
}

// New returns an interpreter at PC 0 with zeroed registers.
func New(p *isa.Program, m *Memory) *Interp {
	return &Interp{Prog: p, Mem: m}
}

// Clone returns a copy of the interpreter sharing the same program but
// with an independent register state and a copy-on-write fork of the
// memory image. The clone exists to pre-execute the future stream
// speculatively: its stores land in private block copies (visible to its
// own later loads, as they would be architecturally) and never reach the
// parent's memory.
func (it *Interp) Clone() *Interp {
	c := *it
	c.Mem = it.Mem.Fork()
	return &c
}

// Step executes one instruction and reports it. ok is false when the
// program has halted (or runs off the end of the code).
func (it *Interp) Step() (di DynInst, ok bool) {
	ok = it.StepInto(&di)
	return di, ok
}

// StepInto is Step writing into a DynInst the caller owns, so a loop over
// millions of instructions reuses one 80-byte record instead of copying a
// fresh one out per instruction. Every field of *di is overwritten; when
// it returns false (halted, or off the end of the code) *di is untouched.
func (it *Interp) StepInto(di *DynInst) bool {
	pc, code := it.St.PC, it.Prog.Code
	if it.St.Halted || uint(pc) >= uint(len(code)) {
		it.St.Halted = true
		return false
	}
	in := &code[pc]
	// Field by field, one statement each: a composite literal or a tuple
	// assignment builds the record (or the instruction) on the stack first
	// and copies it over.
	di.Seq = it.Seq
	di.PC = pc
	di.Inst = *in
	di.NextPC = pc + 1
	di.Addr = 0
	di.Taken = false
	di.Val = 0
	r := &it.St.Regs

	// The arithmetic second operand, read once. Ops that ignore it may carry
	// any Src2 (Validate checks only the registers an op reads), hence the
	// mask; for the ops that do read it the mask is the identity.
	src2 := uint64(in.Imm)
	if !in.UseImm {
		src2 = r[in.Src2%isa.NumRegs]
	}

	switch in.Op {
	case isa.Nop:
	case isa.Halt:
		it.St.Halted = true
	case isa.Li:
		di.Val = uint64(in.Imm)
		r[in.Dst] = di.Val
	case isa.Mov:
		di.Val = r[in.Src1]
		r[in.Dst] = di.Val
	case isa.Hash:
		di.Val = isa.Mix64(r[in.Src1])
		r[in.Dst] = di.Val
	case isa.Add:
		di.Val = r[in.Src1] + src2
		r[in.Dst] = di.Val
	case isa.Sub:
		di.Val = r[in.Src1] - src2
		r[in.Dst] = di.Val
	case isa.Mul:
		di.Val = r[in.Src1] * src2
		r[in.Dst] = di.Val
	case isa.Div:
		if src2 == 0 {
			di.Val = 0
		} else {
			di.Val = r[in.Src1] / src2
		}
		r[in.Dst] = di.Val
	case isa.And:
		di.Val = r[in.Src1] & src2
		r[in.Dst] = di.Val
	case isa.Or:
		di.Val = r[in.Src1] | src2
		r[in.Dst] = di.Val
	case isa.Xor:
		di.Val = r[in.Src1] ^ src2
		r[in.Dst] = di.Val
	case isa.Shl:
		di.Val = r[in.Src1] << (src2 & 63)
		r[in.Dst] = di.Val
	case isa.Shr:
		di.Val = r[in.Src1] >> (src2 & 63)
		r[in.Dst] = di.Val
	case isa.Cmp:
		di.Val = r[in.Src1] - src2
		r[in.Dst] = di.Val
	case isa.Load:
		di.Addr = r[in.Src1] + uint64(in.Imm)
		di.Val = it.Mem.Load64(di.Addr)
		r[in.Dst] = di.Val
	case isa.LoadIdx:
		di.Addr = r[in.Src1] + r[in.Src2]*8 + uint64(in.Imm)
		di.Val = it.Mem.Load64(di.Addr)
		r[in.Dst] = di.Val
	case isa.Store:
		di.Addr = r[in.Src1] + uint64(in.Imm)
		di.Val = r[in.Src2]
		it.Mem.Store64(di.Addr, di.Val)
	case isa.StoreIdx:
		di.Addr = r[in.Src1] + r[in.Src2]*8 + uint64(in.Imm)
		di.Val = r[in.Dst]
		it.Mem.Store64(di.Addr, di.Val)
	case isa.Br:
		di.Taken = in.Cond.Eval(int64(r[in.Src1]))
		if di.Taken {
			di.NextPC = in.Target
		}
	default:
		panic(fmt.Sprintf("interp: %s: unknown op %v at pc %d", it.Prog.Name, in.Op, it.St.PC))
	}

	it.St.PC = di.NextPC
	it.Seq++
	if it.St.Halted {
		di.NextPC = it.St.PC
	}
	return true
}

// Run executes at most max instructions (all of them if max <= 0) and
// returns the number executed.
func (it *Interp) Run(max uint64) uint64 {
	var (
		di DynInst
		n  uint64
	)
	for max <= 0 || n < max {
		if !it.StepInto(&di) {
			break
		}
		n++
	}
	return n
}

// RunWith executes at most max instructions (all of them if max <= 0),
// invoking fn on each executed instruction, and returns the number
// executed. It is the profiling entry point of the sampled-simulation
// engine: a functional pass over the stream that observes PCs, branch
// outcomes and effective addresses at interpreter speed, without paying
// for a DynInst slice.
func (it *Interp) RunWith(max uint64, fn func(DynInst)) uint64 {
	if fn == nil {
		return it.Run(max)
	}
	var (
		di DynInst
		n  uint64
	)
	for max <= 0 || n < max {
		if !it.StepInto(&di) {
			break
		}
		fn(di)
		n++
	}
	return n
}

// RunInto is RunWith for callbacks that only read the instruction: fn is
// handed a pointer to one DynInst that RunInto reuses for every
// instruction, valid until fn returns. A nil fn just runs.
func (it *Interp) RunInto(max uint64, fn func(*DynInst)) uint64 {
	if fn == nil {
		return it.Run(max)
	}
	di := new(DynInst)
	var n uint64
	for max <= 0 || n < max {
		if !it.StepInto(di) {
			break
		}
		fn(di)
		n++
	}
	return n
}

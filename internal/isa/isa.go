// Package isa defines the micro-ISA executed by the simulator: a small
// RISC-like instruction set with 16 architectural integer registers,
// 64-bit values, byte-addressed memory, and the loop idioms (compare
// feeding a backward conditional branch) that Decoupled Vector Runahead's
// Discovery Mode keys off.
package isa

import "fmt"

// NumRegs is the number of architectural integer registers. It matches the
// paper's hardware budget: the Vector Taint Tracker is 16 bits (one per
// register) and the VRAT has 16 entries.
const NumRegs = 16

// Reg names an architectural integer register, 0 through NumRegs-1.
type Reg uint8

// String implements fmt.Stringer.
func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Valid reports whether r names an existing architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// Op is an instruction opcode.
type Op uint8

// Opcodes. Arithmetic ops write Dst from Src1 and Src2 (or Imm when UseImm
// is set). Load reads 8 bytes at Src1+Imm into Dst; LoadIdx reads 8 bytes
// at Src1 + Src2*8 + Imm. Store writes Src2 to Src1+Imm. Cmp writes the
// signed difference Src1-Src2 into Dst; Br tests Src1 against zero under
// Cond and jumps to Target. Hash is a one-cycle-per-op integer mixing
// function standing in for the hash computations in database kernels.
const (
	Nop Op = iota
	Add
	Sub
	Mul
	Div
	And
	Or
	Xor
	Shl
	Shr
	Li   // Dst = Imm
	Mov  // Dst = Src1
	Load // Dst = mem64[Src1 + Imm]
	LoadIdx
	Store // mem64[Src1 + Imm] = Src2
	StoreIdx
	Cmp  // Dst = Src1 - Src2 (signed compare result)
	Br   // if Cond(Src1) goto Target
	Hash // Dst = mix64(Src1)
	Halt
	numOps
)

var opNames = [...]string{
	Nop: "nop", Add: "add", Sub: "sub", Mul: "mul", Div: "div",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr",
	Li: "li", Mov: "mov", Load: "load", LoadIdx: "loadx",
	Store: "store", StoreIdx: "storex", Cmp: "cmp", Br: "br",
	Hash: "hash", Halt: "halt",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < numOps }

// IsMem reports whether o accesses data memory.
func (o Op) IsMem() bool { return o == Load || o == LoadIdx || o == Store || o == StoreIdx }

// IsLoad reports whether o is a load.
func (o Op) IsLoad() bool { return o == Load || o == LoadIdx }

// IsStore reports whether o is a store.
func (o Op) IsStore() bool { return o == Store || o == StoreIdx }

// IsBranch reports whether o is a control-flow instruction.
func (o Op) IsBranch() bool { return o == Br }

// WritesDst reports whether o writes a destination register.
func (o Op) WritesDst() bool {
	switch o {
	case Add, Sub, Mul, Div, And, Or, Xor, Shl, Shr, Li, Mov, Load, LoadIdx, Cmp, Hash:
		return true
	}
	return false
}

// Cond is a branch condition, evaluated against the signed value of the
// branch's source register (typically the result of a Cmp).
type Cond uint8

// Branch conditions.
const (
	CondNone Cond = iota
	EQ            // Src1 == 0
	NE            // Src1 != 0
	LT            // Src1 <  0
	GE            // Src1 >= 0
	LE            // Src1 <= 0
	GT            // Src1 >  0
	Always
)

var condNames = [...]string{
	CondNone: "", EQ: "eq", NE: "ne", LT: "lt", GE: "ge", LE: "le", GT: "gt", Always: "al",
}

// String implements fmt.Stringer.
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// Eval reports whether the condition holds for the signed value v.
func (c Cond) Eval(v int64) bool {
	switch c {
	case EQ:
		return v == 0
	case NE:
		return v != 0
	case LT:
		return v < 0
	case GE:
		return v >= 0
	case LE:
		return v <= 0
	case GT:
		return v > 0
	case Always:
		return true
	}
	return false
}

// Inst is a single micro-ISA instruction.
type Inst struct {
	Op     Op
	Dst    Reg
	Src1   Reg
	Src2   Reg
	Imm    int64
	UseImm bool // arithmetic second operand is Imm instead of Src2
	Cond   Cond // branch condition (Br only)
	Target int  // branch target, a program-counter index (Br only)
}

// String implements fmt.Stringer.
func (in Inst) String() string {
	switch {
	case in.Op == Br:
		return fmt.Sprintf("br.%s %s, @%d", in.Cond, in.Src1, in.Target)
	case in.Op == Li:
		return fmt.Sprintf("li %s, %d", in.Dst, in.Imm)
	case in.Op == Load:
		return fmt.Sprintf("load %s, [%s+%d]", in.Dst, in.Src1, in.Imm)
	case in.Op == LoadIdx:
		return fmt.Sprintf("loadx %s, [%s+%s*8+%d]", in.Dst, in.Src1, in.Src2, in.Imm)
	case in.Op == Store:
		return fmt.Sprintf("store [%s+%d], %s", in.Src1, in.Imm, in.Src2)
	case in.Op == StoreIdx:
		return fmt.Sprintf("storex [%s+%s*8+%d], %s", in.Src1, in.Src2, in.Imm, in.Dst)
	case in.Op == Halt || in.Op == Nop:
		return in.Op.String()
	case in.Op == Mov || in.Op == Hash:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.Src1)
	case in.UseImm:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Dst, in.Src1, in.Imm)
	default:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Dst, in.Src1, in.Src2)
	}
}

// SrcRegs appends the architectural registers read by the instruction to
// dst and returns the extended slice.
func (in Inst) SrcRegs(dst []Reg) []Reg {
	switch in.Op {
	case Nop, Halt, Li:
		return dst
	case Mov, Hash:
		return append(dst, in.Src1)
	case Load:
		return append(dst, in.Src1)
	case LoadIdx:
		return append(dst, in.Src1, in.Src2)
	case Store:
		return append(dst, in.Src1, in.Src2)
	case StoreIdx:
		return append(dst, in.Src1, in.Src2, in.Dst)
	case Br:
		if in.Cond == Always {
			return dst
		}
		return append(dst, in.Src1)
	default: // arithmetic
		if in.UseImm {
			return append(dst, in.Src1)
		}
		return append(dst, in.Src1, in.Src2)
	}
}

// SrcMask returns the registers the instruction reads as a bit set, bit r
// for register r: what SrcRegs lists, in the form timing models decode once
// per static instruction and test against register sets with one AND.
func (in Inst) SrcMask() uint16 {
	var buf [4]Reg
	var m uint16
	for _, r := range in.SrcRegs(buf[:0]) {
		m |= 1 << (r % NumRegs)
	}
	return m
}

// Program is an assembled instruction sequence. PCs are indices into Code.
type Program struct {
	Code   []Inst
	Labels map[string]int
	// Name identifies the program in diagnostics.
	Name string
}

// SrcMasks returns SrcMask of every instruction, indexed by PC: the decode
// a timing model or engine builds once per program.
func (p *Program) SrcMasks() []uint16 {
	m := make([]uint16, len(p.Code))
	for pc, in := range p.Code {
		m[pc] = in.SrcMask()
	}
	return m
}

// Validate checks that every instruction in the program is well formed:
// defined opcodes, valid register numbers and in-range branch targets.
func (p *Program) Validate() error {
	for pc, in := range p.Code {
		if !in.Op.Valid() {
			return fmt.Errorf("isa: %s: pc %d: invalid opcode %d", p.Name, pc, uint8(in.Op))
		}
		if in.Op.WritesDst() && !in.Dst.Valid() {
			return fmt.Errorf("isa: %s: pc %d: invalid dst %d", p.Name, pc, uint8(in.Dst))
		}
		for _, r := range in.SrcRegs(nil) {
			if !r.Valid() {
				return fmt.Errorf("isa: %s: pc %d: invalid src %d", p.Name, pc, uint8(r))
			}
		}
		if in.Op == Br {
			if in.Target < 0 || in.Target >= len(p.Code) {
				return fmt.Errorf("isa: %s: pc %d: branch target %d out of range [0,%d)", p.Name, pc, in.Target, len(p.Code))
			}
			if in.Cond == CondNone {
				return fmt.Errorf("isa: %s: pc %d: branch without condition", p.Name, pc)
			}
		}
	}
	return nil
}

// Mix64 is the ISA's Hash operation: a cheap, well-distributed 64-bit
// integer mixer (splitmix64 finalizer).
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Disassemble renders the program as an assembly listing with label
// annotations and branch-target markers.
func (p *Program) Disassemble() string {
	labelAt := make(map[int][]string)
	for name, pc := range p.Labels {
		labelAt[pc] = append(labelAt[pc], name)
	}
	var b []byte
	for pc, in := range p.Code {
		for _, l := range labelAt[pc] {
			b = append(b, []byte(l+":\n")...)
		}
		b = append(b, []byte(fmt.Sprintf("  %4d  %s\n", pc, in))...)
	}
	return string(b)
}

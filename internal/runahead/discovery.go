package runahead

import (
	"slices"

	"dvr/internal/interp"
	"dvr/internal/isa"
)

// discoveryBudget caps how many committed instructions Discovery Mode may
// observe before giving up (one loop iteration is expected to be far
// shorter).
const discoveryBudget = 400

// DefaultLanes is the maximum vectorization degree of one DVR invocation.
const DefaultLanes = 128

// discovery is Discovery Mode (§4.1): it follows the main thread's
// committed stream for one iteration of the loop containing a striding
// load, and determines (i) the innermost striding load, (ii) the dependent
// load chain (via the Vector Taint Tracker and Final-Load Register), and
// (iii) the remaining loop iterations (via the Last-Compare Register,
// Seen-Branch Bit, and register-file checkpoints).
type discovery struct {
	TargetPC int   `json:"target_pc"`
	Stride   int64 `json:"stride"`

	VTT     uint16 `json:"vtt"`    // Vector Taint Tracker: one bit per architectural register
	FLRPC   int    `json:"flr_pc"` // Final-Load Register: last tainted load's PC (-1: none)
	Steps   int    `json:"steps"`
	Started bool   `json:"started,omitempty"`

	// Loop-bound inference.
	LCRValid   bool    `json:"lcr_valid,omitempty"`
	LCRSrc1    isa.Reg `json:"lcr_src1,omitempty"`
	LCRSrc2    isa.Reg `json:"lcr_src2,omitempty"`
	LCRUseImm  bool    `json:"lcr_use_imm,omitempty"`
	LCRImm     int64   `json:"lcr_imm,omitempty"`
	LCRDst     isa.Reg `json:"lcr_dst,omitempty"`
	SBB        bool    `json:"sbb,omitempty"` // Seen-Branch Bit
	BackBranch int     `json:"back_branch"`   // PC of the backward branch closing the loop (-1: none)

	// Innermost-stride switching (§4.1.1): the confident striding-load PCs
	// seen once so far, sorted.
	SeenStride []int `json:"seen_stride,omitempty"`

	// Register-file checkpoint at Discovery Mode entry.
	Enter [isa.NumRegs]uint64 `json:"enter"`

	BranchesAfterFLR bool `json:"branches_after_flr,omitempty"` // footnote 1: branches between FLR and loop close
}

// discoveryResult is what Discovery Mode hands to the subthread spawn.
type discoveryResult struct {
	StridePC   int     `json:"stride_pc"`
	Stride     int64   `json:"stride"`
	FLRPC      int     `json:"flr_pc"` // -1 when no dependent chain was found
	Lanes      int     `json:"lanes"`  // remaining loop iterations, capped at DefaultLanes
	BoundKnown bool    `json:"bound_known,omitempty"`
	BoundReg   isa.Reg `json:"bound_reg,omitempty"`    // loop-bound register (constant across the iteration)
	BoundIsImm bool    `json:"bound_is_imm,omitempty"` // the loop bound is an immediate in the compare
	BoundImm   int64   `json:"bound_imm,omitempty"`
	IVReg      isa.Reg `json:"iv_reg,omitempty"`    // induction-variable register
	Incr       int64   `json:"incr,omitempty"`      // loop increment (the IR for nested mode)
	BackBranch int     `json:"back_branch"`         // backward branch PC (-1 if none seen)
	Divergent  bool    `json:"divergent,omitempty"` // branches seen between FLR and loop close (footnote 1)
}

// hasChain reports whether a dependent load chain was found; DVR is only
// worth triggering when there is one (§4.1.2).
func (r discoveryResult) hasChain() bool { return r.FLRPC >= 0 }

func newDiscovery(targetPC int, stride int64, regs [isa.NumRegs]uint64) *discovery {
	return &discovery{
		TargetPC:   targetPC,
		Stride:     stride,
		FLRPC:      -1,
		BackBranch: -1,
		Enter:      regs,
	}
}

// seedTaint marks the striding load's destination register tainted.
func (d *discovery) seedTaint(dst isa.Reg) { d.VTT = 1 << uint(dst) }

// observe feeds one committed instruction. It returns (result, true) when
// Discovery Mode completes (the striding load commits again), and aborts by
// returning done=true with lanes=0 when the budget runs out.
func (d *discovery) observe(di *interp.DynInst, rpt *RPT, regs [isa.NumRegs]uint64) (discoveryResult, bool) {
	in := di.Inst

	if di.PC == d.TargetPC && d.Started {
		return d.finish(regs), true
	}
	d.Started = true
	d.Steps++
	if d.Steps > discoveryBudget {
		return discoveryResult{StridePC: d.TargetPC, FLRPC: -1}, true
	}

	// Innermost striding-load detection (§4.1.1): seeing another confident
	// striding load twice before returning to the target means that load is
	// more inner; switch Discovery Mode to it.
	if in.Op.IsLoad() {
		if e := rpt.Lookup(di.PC); e != nil && e.Confident() && di.PC != d.TargetPC {
			i, seen := slices.BinarySearch(d.SeenStride, di.PC)
			if seen {
				nd := newDiscovery(di.PC, e.Stride, regs)
				nd.seedTaint(in.Dst)
				*d = *nd
				d.Started = true
				return discoveryResult{}, false
			}
			d.SeenStride = slices.Insert(d.SeenStride, i, di.PC)
		}
	}

	// Taint propagation (§4.1.2).
	anySrcTainted := in.SrcMask()&d.VTT != 0
	if in.Op.IsLoad() && anySrcTainted {
		// A load whose address depends on the striding load: update the FLR
		// and zero the LCR/SBB.
		d.FLRPC = di.PC
		d.LCRValid = false
		d.SBB = false
		d.BranchesAfterFLR = false
	}
	if in.Op.WritesDst() {
		if anySrcTainted {
			d.VTT |= 1 << uint(in.Dst)
		} else {
			d.VTT &^= 1 << uint(in.Dst)
		}
	}

	// Loop-bound inference (§4.1.3).
	if in.Op == isa.Cmp && !d.SBB {
		d.LCRValid = true
		d.LCRSrc1 = in.Src1
		d.LCRSrc2 = in.Src2
		d.LCRUseImm = in.UseImm
		d.LCRImm = in.Imm
		d.LCRDst = in.Dst
	}
	if in.Op == isa.Br && in.Cond != isa.Always {
		switch {
		case d.LCRValid && in.Src1 == d.LCRDst && in.Target <= d.TargetPC:
			// The loop-closing backward branch.
			d.SBB = true
			d.BackBranch = di.PC
		case d.FLRPC >= 0 && !d.SBB:
			// Some other branch between the FLR and the loop close
			// (footnote 1): lanes may diverge after the final load.
			d.BranchesAfterFLR = true
		}
	}
	return discoveryResult{}, false
}

// finish compares the entry and exit register-file checkpoints against the
// LCR to infer the loop bound and increment, then packages the result.
func (d *discovery) finish(exit [isa.NumRegs]uint64) discoveryResult {
	res := discoveryResult{
		StridePC:   d.TargetPC,
		Stride:     d.Stride,
		FLRPC:      d.FLRPC,
		Lanes:      DefaultLanes,
		BackBranch: d.BackBranch,
		Divergent:  d.BranchesAfterFLR,
	}
	if !d.LCRValid || !d.SBB {
		return res
	}
	type operand struct {
		reg   isa.Reg
		isReg bool
		enter uint64
		exit  uint64
	}
	a := operand{reg: d.LCRSrc1, isReg: true, enter: d.Enter[d.LCRSrc1], exit: exit[d.LCRSrc1]}
	b := operand{reg: d.LCRSrc2, isReg: !d.LCRUseImm}
	if b.isReg {
		b.enter, b.exit = d.Enter[d.LCRSrc2], exit[d.LCRSrc2]
	} else {
		b.enter, b.exit = uint64(d.LCRImm), uint64(d.LCRImm)
	}

	var iv, bound operand
	switch {
	case a.enter != a.exit && b.enter == b.exit:
		iv, bound = a, b
	case b.isReg && b.enter != b.exit && a.enter == a.exit:
		iv, bound = b, a
	default:
		return res // no match: run for the full 128 elements
	}

	incr := int64(iv.exit) - int64(iv.enter)
	if incr == 0 {
		return res
	}
	remaining := (int64(bound.exit) - int64(iv.exit)) / incr
	switch {
	case remaining < 0:
		remaining = 0
	case remaining > MaxLanes:
		remaining = MaxLanes
	}
	res.Lanes = int(remaining)
	res.BoundKnown = true
	res.BoundReg = bound.reg
	res.BoundIsImm = !bound.isReg
	res.BoundImm = int64(bound.exit)
	res.IVReg = iv.reg
	res.Incr = incr
	return res
}

package runahead

import (
	"testing"
	"testing/quick"

	"dvr/internal/interp"
	"dvr/internal/isa"
	"dvr/internal/mem"
)

// randomProgram builds a syntactically valid program from a byte string:
// arbitrary ALU/memory/branch soup. All branch targets are in range, so
// the only safety nets exercised are the runahead engine's own (timeouts,
// lane masks, reconvergence stack bounds).
func randomProgram(data []byte) *isa.Program {
	if len(data) == 0 {
		data = []byte{0}
	}
	n := len(data)
	code := make([]isa.Inst, 0, n+1)
	for i, b := range data {
		op := isa.Op(b % 19)
		if op == isa.Halt {
			op = isa.Nop
		}
		in := isa.Inst{
			Op:   op,
			Dst:  isa.Reg(b % 16),
			Src1: isa.Reg((b >> 2) % 16),
			Src2: isa.Reg((b >> 4) % 16),
			Imm:  int64(b%64) * 8,
		}
		if op == isa.Br {
			in.Cond = isa.Cond(1 + b%7)
			in.Target = int(b) * (i + 1) % (n + 1)
		}
		if b%5 == 0 {
			in.UseImm = true
		}
		code = append(code, in)
	}
	code = append(code, isa.Inst{Op: isa.Halt})
	p := &isa.Program{Code: code, Name: "fuzz"}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// TestVecRunSurvivesRandomPrograms: the vector engine must terminate
// within its budgets and never panic, whatever code it is pointed at.
func TestVecRunSurvivesRandomPrograms(t *testing.T) {
	cfg := mem.DefaultConfig()
	cfg.StrideEnabled = false
	f := func(data []byte, regsRaw [16]uint32, lanes8 uint8, reconverge bool) bool {
		prog := randomProgram(data)
		h := mem.NewHierarchy(cfg)
		fmem := interp.NewMemory()
		var regs [isa.NumRegs]uint64
		for i, r := range regsRaw {
			regs[i] = uint64(r) % (1 << 24)
		}
		lanes := int(lanes8%128) + 1
		vc := DefaultVecConfig()
		vc.Reconverge = reconverge
		run := newVecRun(prog, prog.SrcMasks(), fmem, h, vc, newVecState(regs, lanes), 0)
		run.rpt = NewRPT(8)
		override := new(laneVec)
		for k := 0; k < lanes; k++ {
			override[k] = uint64(k * 64)
		}
		start := int(uint(len(data)) % uint(len(prog.Code)))
		run.exec(execOpts{
			startPC:      start,
			addrOverride: override,
			stridePC:     start,
			flrPC:        int(uint(len(data)*3) % uint(len(prog.Code))),
			stopBefore:   -1,
		})
		return run.steps <= vc.MaxSteps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDiscoverySurvivesRandomStreams: Discovery Mode must always conclude
// within its budget on arbitrary committed streams.
func TestDiscoverySurvivesRandomStreams(t *testing.T) {
	f := func(data []byte, seed uint32) bool {
		prog := randomProgram(data)
		it := interp.New(prog, interp.NewMemory())
		rpt := NewRPT(8)
		d := newDiscovery(0, 8, it.St.Regs)
		d.seedTaint(isa.Reg(seed % 16))
		d.Started = true
		for i := 0; i < discoveryBudget*3; i++ {
			di, ok := it.Step()
			if !ok {
				return true // program halted; discovery simply never finishes
			}
			if _, done := d.observe(&di, rpt, it.St.Regs); done {
				return true
			}
		}
		return false // budget must have fired by now
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEngineSurvivesRandomStreams: the full DVR engine fed arbitrary
// committed streams must not panic and must keep its episode accounting
// coherent.
func TestEngineSurvivesRandomStreams(t *testing.T) {
	cfg := mem.DefaultConfig()
	cfg.StrideEnabled = false
	f := func(data []byte) bool {
		prog := randomProgram(data)
		fmem := interp.NewMemory()
		it := interp.New(prog, fmem)
		h := mem.NewHierarchy(cfg)
		eng := NewDVR(it, h)
		var cyc uint64
		for i := 0; i < 2000; i++ {
			di, ok := it.Step()
			if !ok {
				break
			}
			cyc += 2
			eng.OnCommit(&di, cyc)
		}
		s := eng.Stats()
		return s.Episodes <= s.DiscoveryModes+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

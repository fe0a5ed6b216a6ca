package experiments

import (
	"context"

	"dvr/internal/cpu"
	"dvr/internal/mem"
	"dvr/internal/stats"
	"dvr/internal/workloads"
)

// Fig9Row is one benchmark's memory-level parallelism (average MSHRs in
// use per cycle) for the OoO baseline, VR and DVR.
type Fig9Row struct {
	Bench string
	MLP   map[Technique]float64
}

// Fig9 reproduces Figure 9: DVR sustains far more outstanding misses than
// the baseline core (the paper: OoO under four on average, DVR over ten).
func Fig9(specs []workloads.Spec, cfg cpu.Config) (rows []Fig9Row, render func() string) {
	techs := []Technique{TechOoO, TechVR, TechDVR}
	m := must(matrix(context.Background(), specs, techs, cfg, nil))
	for _, sp := range specs {
		row := Fig9Row{Bench: sp.Name, MLP: make(map[Technique]float64)}
		for _, tech := range techs {
			row.MLP[tech] = m[sp.Name][tech].MLP()
		}
		rows = append(rows, row)
	}
	render = func() string {
		t := stats.NewTable("Figure 9: MLP (avg MSHRs in use per cycle)", "bench", "ooo", "vr", "dvr")
		var a, b, c []float64
		for _, r := range rows {
			t.AddRow(r.Bench, r.MLP[TechOoO], r.MLP[TechVR], r.MLP[TechDVR])
			a = append(a, r.MLP[TechOoO])
			b = append(b, r.MLP[TechVR])
			c = append(c, r.MLP[TechDVR])
		}
		t.AddRow("mean", stats.Mean(a), stats.Mean(b), stats.Mean(c))
		return t.String()
	}
	return rows, render
}

// Fig10Row is one benchmark's DRAM traffic split, normalized to the OoO
// baseline's total DRAM accesses.
type Fig10Row struct {
	Bench string
	// Main and Runahead are the technique's DRAM accesses from the main
	// thread and from runahead mode, normalized to the baseline total.
	Main     map[Technique]float64
	Runahead map[Technique]float64
	// Unused is the technique's prefetched-but-never-demanded lines
	// (evicted unused, any prefetch source), normalized the same way —
	// the wasted share of the traffic above.
	Unused map[Technique]float64
}

// Fig10 reproduces Figure 10 (accuracy and coverage): total main-memory
// accesses split between main thread and runahead, normalized to the OoO
// baseline. VR over-fetches (the paper: over 2x) for lack of loop-length
// analysis; DVR stays near 1x thanks to Discovery Mode, with most traffic
// shifted into the runahead subthread (coverage).
func Fig10(specs []workloads.Spec, cfg cpu.Config) (rows []Fig10Row, render func() string) {
	techs := []Technique{TechOoO, TechVR, TechDVR}
	m := must(matrix(context.Background(), specs, techs, cfg, nil))
	for _, sp := range specs {
		base := float64(m[sp.Name][TechOoO].Mem.TotalDRAM())
		if base == 0 {
			base = 1
		}
		row := Fig10Row{
			Bench:    sp.Name,
			Main:     make(map[Technique]float64),
			Runahead: make(map[Technique]float64),
			Unused:   make(map[Technique]float64),
		}
		for _, tech := range []Technique{TechVR, TechDVR} {
			res := m[sp.Name][tech]
			st := res.Mem
			row.Main[tech] = float64(st.DRAMAccesses[mem.SrcDemand]+st.DRAMAccesses[mem.SrcStridePF]) / base
			row.Runahead[tech] = float64(st.DRAMAccesses[mem.SrcRunahead]) / base
			row.Unused[tech] = float64(res.PrefUnusedEvictTotal) / base
		}
		rows = append(rows, row)
	}
	render = func() string {
		t := stats.NewTable("Figure 10: DRAM accesses normalized to OoO total",
			"bench", "vr-main", "vr-runahead", "vr-total", "vr-unused",
			"dvr-main", "dvr-runahead", "dvr-total", "dvr-unused")
		var vrTot, dvrTot []float64
		for _, r := range rows {
			vt := r.Main[TechVR] + r.Runahead[TechVR]
			dt := r.Main[TechDVR] + r.Runahead[TechDVR]
			t.AddRow(r.Bench, r.Main[TechVR], r.Runahead[TechVR], vt, r.Unused[TechVR],
				r.Main[TechDVR], r.Runahead[TechDVR], dt, r.Unused[TechDVR])
			vrTot = append(vrTot, vt)
			dvrTot = append(dvrTot, dt)
		}
		t.AddRow("mean", "", "", stats.Mean(vrTot), "", "", "", stats.Mean(dvrTot), "")
		return t.String()
	}
	return rows, render
}

// Fig11Row is the timeliness classification of DVR's prefetched lines: the
// level at which the main thread found them.
type Fig11Row struct {
	Bench               string
	L1, L2, L3, OffChip float64
	// AvgMissCycles and CommitHoldFrac come straight from the schema-v2
	// Result fields (no ad hoc recomputation): mean demand-miss latency
	// under DVR and the fraction of cycles commit was held.
	AvgMissCycles  float64
	CommitHoldFrac float64
}

// Fig11 reproduces Figure 11 (timeliness): most runahead-prefetched lines
// are still in the L1-D when the main thread arrives; a consistent 10-20%
// are observed beyond the LLC (in flight or wasted).
func Fig11(specs []workloads.Spec, cfg cpu.Config) (rows []Fig11Row, render func() string) {
	jobs := make([]Job, len(specs))
	for i, sp := range specs {
		jobs[i] = Job{Spec: sp, Tech: TechDVR, Cfg: cfg}
	}
	res := must(RunAll(context.Background(), jobs))
	for i, sp := range specs {
		st := res[i].Mem
		l1 := float64(st.PrefUsefulAt[mem.LvlL1])
		l2 := float64(st.PrefUsefulAt[mem.LvlL2])
		l3 := float64(st.PrefUsefulAt[mem.LvlL3])
		off := float64(st.PrefOffChip(mem.SrcRunahead))
		total := l1 + l2 + l3 + off
		if total == 0 {
			total = 1
		}
		rows = append(rows, Fig11Row{
			Bench: sp.Name, L1: l1 / total, L2: l2 / total, L3: l3 / total, OffChip: off / total,
			AvgMissCycles:  res[i].AvgDemandMissCycles,
			CommitHoldFrac: res[i].CommitHoldFrac,
		})
	}
	render = func() string {
		t := stats.NewTable("Figure 11: timeliness of DVR prefetches (fraction found per level)",
			"bench", "L1", "L2", "L3", "off-chip", "avg-miss-cyc", "hold-frac")
		for _, r := range rows {
			t.AddRow(r.Bench, r.L1, r.L2, r.L3, r.OffChip, r.AvgMissCycles, r.CommitHoldFrac)
		}
		return t.String()
	}
	return rows, render
}

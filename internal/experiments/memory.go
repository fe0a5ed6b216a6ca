package experiments

import (
	"dvr/internal/cpu"
	"dvr/internal/mem"
	"dvr/internal/stats"
)

// memTechs are the techniques Figures 9 and 10 compare, in job order.
var memTechs = []Technique{TechOoO, TechVR, TechDVR}

// fig9 reproduces Figure 9: DVR sustains far more outstanding misses than
// the baseline core (the paper: OoO under four on average, DVR over ten).
func fig9(jobs []Job, res []cpu.Result) []Table {
	t := Table{Title: "Figure 9: MLP (avg MSHRs in use per cycle)", Columns: []string{"bench", "ooo", "vr", "dvr"}}
	for i := 0; i < len(res); i += len(memTechs) {
		t.Rows = append(t.Rows, []any{jobs[i].Spec.Name, res[i].MLP(), res[i+1].MLP(), res[i+2].MLP()})
	}
	t.Rows = append(t.Rows, summary("mean", over(t.Rows, 1, 4, stats.Mean)...))
	return []Table{t}
}

// fig10 reproduces Figure 10 (accuracy and coverage): total main-memory
// accesses split between main thread and runahead, normalized to the OoO
// baseline's total DRAM accesses. VR over-fetches (the paper: over 2x) for
// lack of loop-length analysis; DVR stays near 1x thanks to Discovery
// Mode, with most traffic shifted into the runahead subthread (coverage).
// The unused columns are the technique's prefetched-but-never-demanded
// lines (evicted unused, any prefetch source), normalized the same way:
// the wasted share of the traffic.
func fig10(jobs []Job, res []cpu.Result) []Table {
	t := Table{Title: "Figure 10: DRAM accesses normalized to OoO total", Columns: []string{"bench",
		"vr-main", "vr-runahead", "vr-total", "vr-unused", "dvr-main", "dvr-runahead", "dvr-total", "dvr-unused"}}
	for i := 0; i < len(res); i += len(memTechs) {
		base := float64(res[i].Mem.TotalDRAM())
		if base == 0 {
			base = 1
		}
		r := []any{jobs[i].Spec.Name}
		for _, tr := range res[i+1 : i+3] {
			st := tr.Mem
			main := float64(st.DRAMAccesses[mem.SrcDemand]+st.DRAMAccesses[mem.SrcStridePF]) / base
			ra := float64(st.DRAMAccesses[mem.SrcRunahead]) / base
			r = append(r, main, ra, main+ra, float64(tr.PrefUnusedEvictTotal)/base)
		}
		t.Rows = append(t.Rows, r)
	}
	t.Rows = append(t.Rows, summary("mean", "", "", over(t.Rows, 3, 4, stats.Mean)[0], "", "", "", over(t.Rows, 7, 8, stats.Mean)[0], ""))
	return []Table{t}
}

// fig11 reproduces Figure 11 (timeliness): most runahead-prefetched lines
// are still in the L1-D when the main thread arrives; a consistent 10-20%
// are observed beyond the LLC (in flight or wasted). The last two columns
// come straight from the Result: DVR's mean demand-miss latency and the
// fraction of cycles commit was held.
func fig11(jobs []Job, res []cpu.Result) []Table {
	t := Table{Title: "Figure 11: timeliness of DVR prefetches (fraction found per level)",
		Columns: []string{"bench", "L1", "L2", "L3", "off-chip", "avg-miss-cyc", "hold-frac"}}
	for i, r := range res {
		st := r.Mem
		l1 := float64(st.PrefUsefulAt[mem.LvlL1])
		l2 := float64(st.PrefUsefulAt[mem.LvlL2])
		l3 := float64(st.PrefUsefulAt[mem.LvlL3])
		off := float64(st.PrefOffChip(mem.SrcRunahead))
		total := l1 + l2 + l3 + off
		if total == 0 {
			total = 1
		}
		t.Rows = append(t.Rows, []any{jobs[i].Spec.Name, l1 / total, l2 / total, l3 / total, off / total,
			r.AvgDemandMissCycles, r.CommitHoldFrac})
	}
	return []Table{t}
}

package experiments

import (
	"context"

	"dvr/internal/cpu"
	"dvr/internal/stats"
	"dvr/internal/workloads"
)

// Fig7Row is one benchmark's normalized performance under every technique.
type Fig7Row struct {
	Bench    string
	Speedups map[Technique]float64
}

// Fig7 reproduces Figure 7: performance of PRE, IMP, VR, DVR and the
// Oracle on every benchmark, normalized to the OoO baseline. The paper's
// shape: PRE rarely helps (camel and nas-is are the exceptions), IMP wins
// on simple indirection (cc, nas-is), VR manages ~1.2x h-mean, DVR ~2.4x
// (up to 6.4x) and often approaches the Oracle.
func Fig7(specs []workloads.Spec, cfg cpu.Config) (rows []Fig7Row, render func() string) {
	techs := append([]Technique{TechOoO}, AllTechniques...)
	return Fig7FromMatrix(specs, must(matrix(context.Background(), specs, techs, cfg, nil)))
}

// Fig7FromMatrix renders Figure 7 from an already-computed result matrix —
// the path dvrbench's client mode uses, where the matrix came back from a
// dvrd server instead of in-process simulation. The matrix must cover
// TechOoO (the normalization baseline) and AllTechniques per benchmark.
func Fig7FromMatrix(specs []workloads.Spec, m map[string]map[Technique]cpu.Result) (rows []Fig7Row, render func() string) {
	for _, sp := range specs {
		row := Fig7Row{Bench: sp.Name, Speedups: make(map[Technique]float64)}
		base := m[sp.Name][TechOoO]
		for _, tech := range AllTechniques {
			row.Speedups[tech] = Speedup(base, m[sp.Name][tech])
		}
		rows = append(rows, row)
	}
	render = func() string {
		cols := []string{"bench"}
		for _, tech := range AllTechniques {
			cols = append(cols, string(tech))
		}
		t := stats.NewTable("Figure 7: normalized performance (vs OoO/350)", cols...)
		per := make(map[Technique][]float64)
		for _, r := range rows {
			cells := []interface{}{r.Bench}
			for _, tech := range AllTechniques {
				cells = append(cells, r.Speedups[tech])
				per[tech] = append(per[tech], r.Speedups[tech])
			}
			t.AddRow(cells...)
		}
		hm := []interface{}{"h-mean"}
		mx := []interface{}{"max"}
		chart := stats.NewBarChart("h-mean speedup by technique")
		for _, tech := range AllTechniques {
			h := stats.HarmonicMean(per[tech])
			hm = append(hm, h)
			mx = append(mx, stats.Max(per[tech]))
			chart.Add(string(tech), h)
		}
		t.AddRow(hm...)
		t.AddRow(mx...)
		return t.String() + "\n" + chart.String()
	}
	return rows, render
}

// Fig8Variants is the breakdown lineup of Figure 8, cumulative left to
// right: base VR, VR offloaded to a decoupled stride-triggered subthread,
// plus Discovery Mode, plus Nested Vector Runahead (= full DVR).
var Fig8Variants = []Technique{TechVR, TechDVROffload, TechDVRDiscovery, TechDVR}

// Fig8 reproduces Figure 8: the contribution of each DVR mechanism.
func Fig8(specs []workloads.Spec, cfg cpu.Config) (rows []Fig7Row, render func() string) {
	techs := append([]Technique{TechOoO}, Fig8Variants...)
	return Fig8FromMatrix(specs, must(matrix(context.Background(), specs, techs, cfg, nil)))
}

// Fig8FromMatrix renders Figure 8 from an already-computed result matrix
// (see Fig7FromMatrix).
func Fig8FromMatrix(specs []workloads.Spec, m map[string]map[Technique]cpu.Result) (rows []Fig7Row, render func() string) {
	for _, sp := range specs {
		row := Fig7Row{Bench: sp.Name, Speedups: make(map[Technique]float64)}
		base := m[sp.Name][TechOoO]
		for _, tech := range Fig8Variants {
			row.Speedups[tech] = Speedup(base, m[sp.Name][tech])
		}
		rows = append(rows, row)
	}
	render = func() string {
		cols := []string{"bench"}
		for _, tech := range Fig8Variants {
			cols = append(cols, string(tech))
		}
		t := stats.NewTable("Figure 8: DVR performance breakdown (vs OoO/350)", cols...)
		per := make(map[Technique][]float64)
		for _, r := range rows {
			cells := []interface{}{r.Bench}
			for _, tech := range Fig8Variants {
				cells = append(cells, r.Speedups[tech])
				per[tech] = append(per[tech], r.Speedups[tech])
			}
			t.AddRow(cells...)
		}
		hm := []interface{}{"h-mean"}
		for _, tech := range Fig8Variants {
			hm = append(hm, stats.HarmonicMean(per[tech]))
		}
		t.AddRow(hm...)
		return t.String()
	}
	return rows, render
}

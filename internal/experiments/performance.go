package experiments

import (
	"dvr/internal/cpu"
	"dvr/internal/stats"
)

// Fig8Variants is the breakdown lineup of Figure 8, cumulative left to
// right: base VR, VR offloaded to a decoupled stride-triggered subthread,
// plus Discovery Mode, plus Nested Vector Runahead (= full DVR).
var Fig8Variants = []Technique{TechVR, TechDVROffload, TechDVRDiscovery, TechDVR}

// speedupTable renders a matrix figure whose jobs are, per benchmark, the
// OoO baseline and then techs: one row per benchmark of each technique's
// speedup over the baseline, then the h-mean row.
func speedupTable(title string, techs []Technique, jobs []Job, res []cpu.Result) Table {
	t := Table{Title: title, Columns: []string{"bench"}}
	for _, tech := range techs {
		t.Columns = append(t.Columns, string(tech))
	}
	for i := 0; i < len(res); i += 1 + len(techs) {
		r := []any{jobs[i].Spec.Name}
		for k := range techs {
			r = append(r, Speedup(res[i], res[i+1+k]))
		}
		t.Rows = append(t.Rows, r)
	}
	t.Rows = append(t.Rows, summary("h-mean", over(t.Rows, 1, 1+len(techs), stats.HarmonicMean)...))
	return t
}

// fig7 reproduces Figure 7: performance of PRE, IMP, VR, DVR and the
// Oracle on every benchmark, normalized to the OoO baseline. The paper's
// shape: PRE rarely helps (camel and nas-is are the exceptions), IMP wins
// on simple indirection (cc, nas-is), VR manages ~1.2x h-mean, DVR ~2.4x
// (up to 6.4x) and often approaches the Oracle.
func fig7(jobs []Job, res []cpu.Result) []Table {
	t := speedupTable("Figure 7: normalized performance (vs OoO/350)", AllTechniques, jobs, res)
	body := t.Rows[:len(t.Rows)-1]
	t.Rows = append(t.Rows, summary("max", over(body, 1, 1+len(AllTechniques), stats.Max)...))
	t.Chart = "h-mean speedup by technique"
	return []Table{t}
}

// fig8 reproduces Figure 8: the contribution of each DVR mechanism.
func fig8(jobs []Job, res []cpu.Result) []Table {
	return []Table{speedupTable("Figure 8: DVR performance breakdown (vs OoO/350)", Fig8Variants, jobs, res)}
}

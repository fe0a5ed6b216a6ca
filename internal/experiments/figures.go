package experiments

import (
	"fmt"
	"strings"

	"dvr/internal/cpu"
	"dvr/internal/stats"
)

// Figure is one table or figure of the evaluation as data: the jobs it
// runs on a suite under a config, and the tables it renders from their
// results. Tables never simulates. Whoever calls Jobs decides how the jobs
// run (RunAll, sampled, journalled, traced, through a dvrd server) and
// hands Tables the results in job order.
type Figure struct {
	Name   string
	Jobs   func(s Suite, cfg cpu.Config) []Job
	Tables func(jobs []Job, res []cpu.Result) []Table
}

// Figures are the paper's tables and figures in paper order: what
// `dvrbench all` regenerates.
var Figures = []Figure{
	{Name: "table1", Jobs: noJobs, Tables: table1},
	{Name: "table2", Jobs: table2Jobs, Tables: table2},
	{Name: "fig2", Jobs: fig2Jobs, Tables: fig2},
	{Name: "fig7", Jobs: matrixJobs(append([]Technique{TechOoO}, AllTechniques...)), Tables: fig7},
	{Name: "fig8", Jobs: matrixJobs(append([]Technique{TechOoO}, Fig8Variants...)), Tables: fig8},
	{Name: "fig9", Jobs: matrixJobs(memTechs), Tables: fig9},
	{Name: "fig10", Jobs: matrixJobs(memTechs), Tables: fig10},
	{Name: "fig11", Jobs: matrixJobs([]Technique{TechDVR}), Tables: fig11},
	{Name: "fig12", Jobs: fig12Jobs, Tables: fig12},
}

// Studies are this reproduction's own experiments beyond the paper's
// figures, run by name only.
var Studies = []Figure{
	{Name: "ablation", Jobs: ablationFigureJobs, Tables: ablationTables},
}

func noJobs(Suite, cpu.Config) []Job { return nil }

// matrixJobs returns the Jobs of a figure that runs every benchmark of the
// suite under each of techs, benchmark-major.
func matrixJobs(techs []Technique) func(Suite, cpu.Config) []Job {
	return func(s Suite, cfg cpu.Config) []Job {
		var jobs []Job
		for _, sp := range s.All() {
			for _, tech := range techs {
				jobs = append(jobs, Job{Spec: sp, Tech: tech, Cfg: cfg})
			}
		}
		return jobs
	}
}

// Table is the one result type every figure renders: a title, column
// headers and rows of cells, each a string or a float64. A table without
// columns is an aligned key-value list (Table 1). Chart, when set, titles a
// bar chart of the table's "h-mean" row that the text form draws under it.
type Table struct {
	Title   string   `json:"title"`
	Columns []string `json:"columns,omitempty"`
	Rows    [][]any  `json:"rows"`
	Chart   string   `json:"chart,omitempty"`
}

// String renders the table as cmd/dvrbench prints it: floats with three
// decimals, columns padded to their widest cell.
func (t Table) String() string {
	if t.Columns == nil {
		w := 0
		for _, r := range t.Rows {
			w = max(w, len(r[0].(string)))
		}
		var b strings.Builder
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
		for _, r := range t.Rows {
			fmt.Fprintf(&b, "%-*s  %s\n", w, r[0], r[1])
		}
		return b.String()
	}
	st := stats.NewTable(t.Title, t.Columns...)
	for _, r := range t.Rows {
		st.AddRow(r...)
	}
	if t.Chart == "" {
		return st.String()
	}
	c := stats.NewBarChart(t.Chart)
	for _, r := range t.Rows {
		if r[0] == "h-mean" {
			for i, v := range r[1:] {
				c.Add(t.Columns[i+1], v.(float64))
			}
		}
	}
	return st.String() + "\n" + c.String()
}

// over returns f of each column in [lo, hi) of rows, whose cells there
// are float64s: the cells of a summary row.
func over(rows [][]any, lo, hi int, f func([]float64) float64) []any {
	var out []any
	for c := lo; c < hi; c++ {
		xs := make([]float64, len(rows))
		for i, r := range rows {
			xs[i] = r[c].(float64)
		}
		out = append(out, f(xs))
	}
	return out
}

// summary prepends a label to a summary row's cells.
func summary(label string, cells ...any) []any { return append([]any{label}, cells...) }

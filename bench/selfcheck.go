package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// benchmarkFile is the root BENCHMARK.json: the contract a driver reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(benchDir string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(benchDir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfcheck applies the acceptance rule to this code against itself: two
// sets of untraced runs, each o.seeds seeds per workload, at the bounds and
// run length BENCHMARK.json states. It fails when the second set's median of
// any end-to-end metric is worse than the first's by more than the bound,
// when a spread (interquartile distance over median; needs four seeds)
// exceeds the bound for any metric but setup_s, or when any run fails
// verification.
func selfcheck(ctx context.Context, benchDir string, o options) int {
	bf, err := readBenchmarkFile(benchDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	o.seconds = bf.RunSeconds
	// vals[set][workload][metric] = one value per seed
	var vals [2]map[string]map[string][]float64
	ok := true
	for set := 0; set < 2; set++ {
		vals[set] = make(map[string]map[string][]float64)
		for _, wl := range bf.Workloads {
			vals[set][wl.Name] = make(map[string][]float64)
			for s := 0; s < o.seeds; s++ {
				seed := o.seed + uint64(s)
				doc, err := runChild(ctx, benchDir, o, wl.Name, seed, 0, false)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: selfcheck %s seed %d: %v\n", wl.Name, seed, err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "set %d  %-15s seed %-3d correct=%v  %.1f s\n", set+1, wl.Name, seed, doc.Correct, doc.ElapsedS)
				if !doc.Correct {
					ok = false
					for _, f := range doc.Failures {
						fmt.Fprintln(os.Stderr, "  FAIL:", f)
					}
				}
				for _, m := range bf.EndToEnd {
					vals[set][wl.Name][m.Name] = append(vals[set][wl.Name][m.Name], doc.EndToEnd[m.Name].Value)
				}
			}
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian 1\tmedian 2\tworse by\tspread 1\tspread 2\tbound\tverdict")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			a, b := vals[0][wl.Name][m.Name], vals[1][wl.Name][m.Name]
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			drift := worseBy(m.Better, median(a), median(b))
			s1, s2 := spread(a), spread(b)
			verdict := "ok"
			if drift > bound {
				verdict = "DRIFT"
				ok = false
			}
			if m.Name != "setup_s" && o.seeds >= 4 && (s1 > bound || s2 > bound) {
				verdict = "SPREAD"
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.2f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, median(a), median(b), 100*drift, 100*s1, 100*s2, 100*bound, verdict)
		}
	}
	tw.Flush()
	if !ok {
		fmt.Println("selfcheck: FAILED")
		return 1
	}
	fmt.Println("selfcheck: OK")
	return 0
}

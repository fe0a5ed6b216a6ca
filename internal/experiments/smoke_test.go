package experiments

import (
	"testing"

	"dvr/internal/cpu"
	"dvr/internal/graphgen"
	"dvr/internal/workloads"
)

// TestSmokeBFS runs bfs on a small Kronecker graph under every technique
// and checks basic sanity: runs complete, DVR prefetches, and DVR does not
// lose to the plain out-of-order core.
func TestSmokeBFS(t *testing.T) {
	g := graphgen.Kronecker(13, 8, 7)
	spec := workloads.Spec{
		Name:  "bfs_smoke",
		Build: func() *workloads.Workload { return workloads.BFS(g) },
		ROI:   60_000,
	}
	cfg := cpu.DefaultConfig()
	results := map[Technique]cpu.Result{}
	for _, tech := range []Technique{TechOoO, TechPRE, TechIMP, TechVR, TechDVR, TechOracle} {
		res := runT(t, spec, tech, cfg)
		results[tech] = res
		t.Logf("%-8s IPC=%.3f cyc=%d stall=%.1f%% mlp=%.2f pref=%d ep=%d disc=%d nest=%d dramD=%d dramRA=%d useL1/2/3=%d/%d/%d late=%d mispred=%.1f%%",
			tech, res.IPC(), res.Cycles, 100*res.ROBStallFrac(), res.MLP(),
			res.Engine.Prefetches, res.Engine.Episodes, res.Engine.DiscoveryModes, res.Engine.NestedModes,
			res.Mem.DRAMAccesses[0], res.Mem.TotalDRAM()-res.Mem.DRAMAccesses[0],
			res.Mem.PrefUsefulAt[0], res.Mem.PrefUsefulAt[1], res.Mem.PrefUsefulAt[2],
			res.Mem.PrefLate[2]+res.Mem.PrefLate[1]+res.Mem.PrefLate[3]+res.Mem.PrefLate[4],
			100*res.MispredictRate())
		if res.Instructions == 0 || res.Cycles == 0 {
			t.Fatalf("%s: empty run", tech)
		}
	}
	base := results[TechOoO]
	if results[TechDVR].Engine.Prefetches == 0 {
		t.Errorf("DVR issued no prefetches")
	}
	if s := Speedup(base, results[TechDVR]); s < 1.0 {
		t.Errorf("DVR slower than OoO: speedup %.3f", s)
	}
}

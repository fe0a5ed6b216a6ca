package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dvr/internal/cpu"
	"dvr/internal/workloads"
)

// engineStateAt are the commit counts TestEngineStateGolden snapshots at,
// on nas-cg: at the first, DVR is in Discovery Mode with striding loads
// already seen; at the second, a discovered chain waits to spawn.
var engineStateAt = [...]uint64{2_000, 25_000}

// TestEngineStateGolden pins the checkpoint encoding of every registered
// technique, Figure 8 and ablation variants included: the Engine block of
// a snapshot taken at two fixed commit counts of one quick-suite kernel,
// byte for byte. A refactor of engine state that keeps this file
// identical keeps every archived checkpoint resumable under the same
// engine version; one that moves it must bump api.EngineVersion and
// regenerate with `go test ./internal/experiments -run EngineStateGolden
// -update`.
func TestEngineStateGolden(t *testing.T) {
	var spec workloads.Spec
	for _, sp := range QuickSuite().HPCDB {
		if sp.Name == "nas-cg" {
			spec = sp
		}
	}
	cfg := cpu.DefaultConfig()
	last := engineStateAt[len(engineStateAt)-1]
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: technique seq engine\n", spec.Name)
	for _, tech := range Techniques() {
		var snaps []*cpu.Snapshot
		_, err := Run(context.Background(), Job{Spec: spec, Tech: tech, Cfg: cfg, JobOpts: JobOpts{
			CheckpointEvery: 1_000,
			Checkpoint: func(s *cpu.Snapshot) error {
				for _, at := range engineStateAt {
					if s.Seq == at {
						snaps = append(snaps, s)
					}
				}
				if s.Seq == last {
					return errKilled
				}
				return nil
			},
		}})
		if !errors.Is(err, errKilled) {
			t.Fatalf("%s: run returned %v, want the scripted stop at %d", tech, err, last)
		}
		for _, s := range snaps {
			raw, err := json.Marshal(s.Engine)
			if err != nil {
				t.Fatalf("%s: encode engine state: %v", tech, err)
			}
			fmt.Fprintf(&b, "%s %d %s\n", tech, s.Seq, raw)
		}
	}

	matchGolden(t, "engine_state_quick.golden", b.String())
}

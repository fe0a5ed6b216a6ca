package experiments

import (
	"encoding/json"
	"reflect"
	"testing"

	"dvr/internal/cpu"
	"dvr/internal/workloads"
)

// TestRefRoundTripMatchesClosurePath is the wire-fidelity guarantee the
// dvrd service rests on: serializing a quick-suite benchmark's Ref,
// decoding it in (what could be) another process, resolving it through the
// registry and simulating must reproduce the closure path's figures
// exactly (canonical results byte-identical).
func TestRefRoundTripMatchesClosurePath(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two quick-suite cells twice")
	}
	suite := QuickSuite()
	cfg := cpu.DefaultConfig()
	// One GAP cell (graph params in the ref) and one HPC/DB cell.
	picks := []workloads.Spec{suite.GAP[2], suite.HPCDB[6]} // cc_KR-S, nas-is
	for _, sp := range picks {
		for _, tech := range []Technique{TechOoO, TechDVR} {
			if sp.Ref.Kernel == "" {
				t.Fatalf("%s: quick-suite spec has no ref", sp.Name)
			}
			ref := sp.Ref
			ref.ROI = sp.ROI
			data, err := json.Marshal(ref)
			if err != nil {
				t.Fatal(err)
			}
			var decoded workloads.Ref
			if err := json.Unmarshal(data, &decoded); err != nil {
				t.Fatal(err)
			}
			resolved, err := workloads.Resolve(decoded)
			if err != nil {
				t.Fatalf("%s: resolve round-tripped ref: %v", sp.Name, err)
			}
			want := runT(t, sp, tech, cfg).Canonical()
			got := runT(t, resolved, tech, cfg).Canonical()
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: resolved-ref result differs from closure result\nwant: %+v\n got: %+v",
					sp.Name, tech, want, got)
			}
		}
	}
}

// TestSuiteRefs checks every quick-suite benchmark is declaratively
// addressable (the property dvrbench -server depends on).
func TestSuiteRefs(t *testing.T) {
	refs, err := QuickSuite().Refs()
	if err != nil {
		t.Fatal(err)
	}
	specs := QuickSuite().All()
	if len(refs) != len(specs) {
		t.Fatalf("refs = %d, specs = %d", len(refs), len(specs))
	}
	for i, ref := range refs {
		if ref.SpecName() != specs[i].Name {
			t.Errorf("ref %d names %q, spec names %q", i, ref.SpecName(), specs[i].Name)
		}
		if ref.ROI != specs[i].ROI {
			t.Errorf("%s: ref ROI %d != spec ROI %d", specs[i].Name, ref.ROI, specs[i].ROI)
		}
	}
}

package main

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"dvr/internal/cpu"
	"dvr/internal/experiments"
)

// matrixVia's two in-process paths run the cells one at a time, journalled
// (-checkpoint-dir) or traced (-trace); both must return the matrix MatrixE
// computes, leave no journal behind, and write one trace per cell.
func TestMatrixViaMatchesMatrixE(t *testing.T) {
	specs := experiments.QuickSuite().All()[:2]
	techs := []experiments.Technique{experiments.TechOoO, experiments.TechVR, experiments.TechDVR}
	cfg := cpu.DefaultConfig()
	want, err := experiments.MatrixE(context.Background(), specs, techs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, ckptDir, traceDir, leftover string
		files                             int
	}{
		{"checkpoint-dir", t.TempDir(), "", "*.ckpt", 0},
		{"trace", "", t.TempDir(), "*.json", len(specs) * len(techs)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := matrixVia("", tc.ckptDir, tc.traceDir, specs, techs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, sp := range specs {
				for _, tech := range techs {
					if g, w := got[sp.Name][tech].Canonical(), want[sp.Name][tech].Canonical(); !reflect.DeepEqual(g, w) {
						t.Errorf("%s/%s differs from MatrixE:\n got %+v\nwant %+v", sp.Name, tech, g, w)
					}
				}
			}
			files, err := filepath.Glob(filepath.Join(tc.ckptDir+tc.traceDir, tc.leftover))
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != tc.files {
				t.Errorf("%d %s files in %s, want %d", len(files), tc.leftover, tc.ckptDir+tc.traceDir, tc.files)
			}
		})
	}
}

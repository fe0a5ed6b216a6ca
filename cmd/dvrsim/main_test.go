package main

import (
	"testing"

	"dvr/internal/workloads"
)

// Every registered kernel resolves by its registry name: a graph kernel
// on the named Table 2 input, any other kernel whatever the input says.
func TestFindSpec(t *testing.T) {
	for _, kernel := range workloads.Kernels() {
		t.Run(kernel, func(t *testing.T) {
			sp, err := findSpec(kernel, "ur")
			if err != nil {
				t.Fatal(err)
			}
			want := kernel
			if sp.Ref.Graph != nil {
				want += "_UR"
			}
			if sp.Name != want || sp.Ref.Kernel != kernel || sp.Build == nil {
				t.Errorf("findSpec(%s, ur) = %q (kernel %q), want %q", kernel, sp.Name, sp.Ref.Kernel, want)
			}
		})
	}
}

func TestFindSpecHPCDB(t *testing.T) {
	sp, err := findSpec("camel", "")
	if err != nil || sp.Name != "camel" {
		t.Fatalf("findSpec(camel) = %v, %v", sp.Name, err)
	}
}

func TestFindSpecGAP(t *testing.T) {
	sp, err := findSpec("bfs", "UR")
	if err != nil || sp.Name != "bfs_UR" {
		t.Fatalf("findSpec(bfs, UR) = %v, %v", sp.Name, err)
	}
}

func TestFindSpecErrors(t *testing.T) {
	if _, err := findSpec("nosuch", "KR"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := findSpec("bfs", "XX"); err == nil {
		t.Error("unknown input accepted")
	}
}

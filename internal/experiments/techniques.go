package experiments

import (
	"fmt"
	"sort"
	"sync"

	"dvr/internal/cpu"
	"dvr/internal/interp"
	"dvr/internal/mem"
	"dvr/internal/prefetch"
	"dvr/internal/runahead"
	"dvr/internal/workloads"
)

// Technique names one of the evaluated mechanisms: a key of the technique
// registry.
type Technique string

// The evaluated techniques (§6) plus the Figure 8 breakdown variants.
const (
	TechOoO          Technique = "ooo"
	TechPRE          Technique = "pre"
	TechIMP          Technique = "imp"
	TechVR           Technique = "vr"
	TechDVR          Technique = "dvr"
	TechOracle       Technique = "oracle"
	TechDVROffload   Technique = "dvr-offload"
	TechDVRDiscovery Technique = "dvr-discovery"
)

// AllTechniques is the Figure 7 lineup.
var AllTechniques = []Technique{TechPRE, TechIMP, TechVR, TechDVR, TechOracle}

// OracleLookahead is the instruction distance the Oracle prefetcher runs
// ahead of the main thread.
const OracleLookahead = 512

// Build constructs a technique's engine for one run, over the run's
// frontend, workload and memory hierarchy; nil means no engine (the OoO
// baseline). A resumed run builds the engine here and then restores its
// state, so a Build must not depend on the frontend having advanced.
type Build func(fe *interp.Interp, w *workloads.Workload, h *mem.Hierarchy, cfg cpu.Config) cpu.Engine

var registry = struct {
	sync.RWMutex
	m map[Technique]Build
}{m: make(map[Technique]Build)}

// Register adds a technique to the registry, which makes it runnable by
// Run and RunAll and a valid technique name for dvrd and the CLIs.
// Registering an empty name, a nil builder, or a name twice is a
// programming error and panics.
func Register(name Technique, build Build) {
	if name == "" || build == nil {
		panic("experiments: Register needs a name and a builder")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		panic(fmt.Sprintf("experiments: technique %q registered twice", name))
	}
	registry.m[name] = build
}

// Lookup returns the builder registered under name, or an error wrapping
// ErrUnknownTechnique.
func Lookup(name Technique) (Build, error) {
	registry.RLock()
	build, ok := registry.m[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownTechnique, name)
	}
	return build, nil
}

// Techniques returns the registered technique names, sorted.
func Techniques() []Technique {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]Technique, 0, len(registry.m))
	for n := range registry.m {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names
}

// registerVector registers the vector-runahead engine configured by o
// under o's name.
func registerVector(o runahead.Options) {
	Register(Technique(o.Name), func(fe *interp.Interp, _ *workloads.Workload, h *mem.Hierarchy, _ cpu.Config) cpu.Engine {
		return runahead.NewVector(o, fe, h)
	})
}

func init() {
	Register(TechOoO, func(*interp.Interp, *workloads.Workload, *mem.Hierarchy, cpu.Config) cpu.Engine { return nil })
	Register(TechPRE, func(fe *interp.Interp, _ *workloads.Workload, h *mem.Hierarchy, cfg cpu.Config) cpu.Engine {
		return runahead.NewPRE(fe, h, cfg.Width)
	})
	Register(TechIMP, func(_ *interp.Interp, w *workloads.Workload, h *mem.Hierarchy, _ cpu.Config) cpu.Engine {
		return prefetch.NewIMP(h, w.Mem)
	})
	Register(TechOracle, func(fe *interp.Interp, _ *workloads.Workload, h *mem.Hierarchy, _ cpu.Config) cpu.Engine {
		return prefetch.NewOracle(fe, h, OracleLookahead)
	})
	// VR and the cumulative Figure 8 steps to full DVR.
	for _, o := range []runahead.Options{runahead.VROptions(), runahead.OffloadOptions(), runahead.DiscoveryOptions(), runahead.DVROptions()} {
		registerVector(o)
	}
	// The ablations' variants of full DVR (ablation.go); their defaults
	// (128 lanes, reconvergence, a 200-instruction timeout) are dvr itself.
	for _, lanes := range []int{32, 64, 256} {
		o := runahead.DVROptions()
		o.Name, o.Lanes = fmt.Sprintf("dvr-%d", lanes), lanes
		registerVector(o)
	}
	firstLane := runahead.DVROptions()
	firstLane.Name = "dvr-first-lane"
	firstLane.Vec.Reconverge = false
	registerVector(firstLane)
	for _, steps := range []int{50, 800} {
		o := runahead.DVROptions()
		o.Name, o.Vec.MaxSteps = fmt.Sprintf("dvr-to-%d", steps), steps
		registerVector(o)
	}
}

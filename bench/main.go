// Command bench is the repository's benchmark: four named workloads that
// measure the simulator and the dvrd fleet from outside (timed calls into
// exported functions, real dvrd processes driven over HTTP, the servers'
// own /metrics and span trees), with end-to-end metrics a user would feel
// and, under -trace 1, a per-layer host-time budget. README.md documents
// every workload and metric; BENCHMARK.json in the repository root is the
// machine-readable contract.
//
// Usage (from the repository root):
//
//	go run -C bench . [-workload NAME] [-seed N] [-seconds N] [-trace 0|1]
//	go run -C bench . -selfcheck [-seeds N]
//	go run -C bench . -smoke
//
// With -workload the named workload runs in this process and the last line
// of standard output is one JSON object {correct, attempted, failed,
// metrics}. Without it every workload runs, each in a fresh re-exec'd child
// so set-up time, peak RSS and the per-process suite memoisation cannot
// leak between them. The exit code is non-zero when any output fails
// verification.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// options are the command-line settings of one invocation.
type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	smoke     bool
	selfcheck bool
	seeds     int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (matrix-exact, matrix-sampled, serve-warm, fleet-cold); empty runs all four, each in a child process")
	flag.Uint64Var(&o.seed, "seed", 7, "workload seed: Kronecker graph seed and request/ROI schedule (held-back seed: 11)")
	flag.IntVar(&o.seconds, "seconds", 20, "seconds the timed phase measures for")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics, bench-side spans written to out/trace-<workload>.json")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes (ROI 20000, 40 requests, 4 jobs) for an end-to-end check in seconds")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run two sets of runs of this code and fail if any end-to-end metric disagrees by more than its bound")
	flag.IntVar(&o.seeds, "seeds", 3, "with -selfcheck, seeds per workload per set (10 reproduces the acceptance rule)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the context; every loop below watches it and the
	// deferred teardown (spawned dvrd processes, temp dirs) then runs as on
	// any other exit path.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := realMain(ctx, o)
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, o options) int {
	benchDir, err := findBenchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	switch {
	case o.selfcheck:
		return selfcheck(ctx, benchDir, o)
	case o.workload == "":
		return runAll(ctx, benchDir, o)
	}
	doc, err := runWorkload(ctx, benchDir, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printHuman(os.Stdout, doc)
	line, err := json.Marshal(doc.driverLine())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !doc.Correct {
		return 1
	}
	return 0
}

// findBenchDir locates the harness's own directory: the working directory
// under `go run -C bench .` and `go test`, or ./bench from the repository
// root.
func findBenchDir() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Join(wd, "bench")} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module dvr/bench") {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cannot find the bench module from %s (run from the repository root or from bench/)", wd)
}

// childArgs renders o as the command line of a single-workload child.
func childArgs(o options, workload string, seed uint64, trace int) []string {
	args := []string{
		"-workload", workload,
		"-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace),
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	return args
}

// runChild re-executes this binary for one workload and returns the result
// document it wrote. The child's human table is forwarded when show is set.
func runChild(ctx context.Context, benchDir string, o options, workload string, seed uint64, trace int, show bool) (*resultDoc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := childArgs(o, workload, seed, trace)
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Dir = benchDir
	cmd.Stderr = os.Stderr
	// On cancellation ask the child to tear its fleet down itself; the kill
	// after WaitDelay is the backstop.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 15 * time.Second
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if show && len(lines) > 1 {
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	}
	var exitErr *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exitErr) {
		return nil, runErr
	}
	// A child that failed verification exits 1 but still wrote its
	// document; one that crashed did not.
	var line driverLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("child %v: no result line (%v)", args, runErr)
	}
	data, err := os.ReadFile(resultPath(benchDir, workload, trace == 1))
	if err != nil {
		return nil, err
	}
	var doc resultDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// runAll runs every workload in its own child (untraced, and again traced
// under -trace 1) and prints one combined JSON document last.
func runAll(ctx context.Context, benchDir string, o options) int {
	combined := struct {
		SchemaVersion int          `json:"schema_version"`
		Host          hostInfo     `json:"host"`
		Correct       bool         `json:"correct"`
		Runs          []*resultDoc `json:"runs"`
	}{SchemaVersion: schemaVersion, Host: hostFingerprint(benchDir), Correct: true}
	traces := []int{0}
	if o.trace == 1 {
		traces = []int{0, 1}
	}
	for _, wl := range workloadDefs {
		for _, tr := range traces {
			doc, err := runChild(ctx, benchDir, o, wl.Name, o.seed, tr, true)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.Name, err)
				return 1
			}
			combined.Runs = append(combined.Runs, doc)
			combined.Correct = combined.Correct && doc.Correct
		}
	}
	line, err := json.Marshal(combined)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !combined.Correct {
		return 1
	}
	return 0
}

// hostInfo makes a result document self-describing.
type hostInfo struct {
	GitCommit  string `json:"git_commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func hostFingerprint(benchDir string) hostInfo {
	h := hostInfo{
		GitCommit:  "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   "unknown",
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	// The checkout a driver runs in is not a git repository; that is fine.
	if out, err := exec.Command("git", "-C", benchDir, "rev-parse", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return h
}

package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one spawned dvrd process.
type proc struct {
	name  string
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:<port>
	pprof string // base URL of its -pprof-addr listener; "" when off
	done  chan struct{}
}

// procSet owns every process a run starts, so one stopAll on any exit path
// (normal return, verification failure, SIGINT) leaves no fleet behind.
type procSet struct {
	bin    string // built dvrd binary
	logDir string
	mu     sync.Mutex
	procs  []*proc
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before dvrd binds it; a start that loses that race fails its
// readiness wait and the run reports it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start launches dvrd with args plus a fresh -addr (and -pprof-addr when
// pprof is set), logging its output under logDir.
func (ps *procSet) start(name string, pprof bool, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	p := &proc{name: name, base: "http://" + addr, done: make(chan struct{})}
	args = append(args, "-addr", addr)
	if pprof {
		pp, err := freePort()
		if err != nil {
			return nil, err
		}
		pa := fmt.Sprintf("127.0.0.1:%d", pp)
		p.pprof = "http://" + pa
		args = append(args, "-pprof-addr", pa)
	}
	logf, err := os.Create(filepath.Join(ps.logDir, fmt.Sprintf("%s-%d.log", name, port)))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(ps.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p.cmd = cmd
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: stop() decides how it ends
		logf.Close()
		close(p.done)
	}()
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()
	return p, nil
}

// stop ends the process: SIGTERM for a graceful drain, SIGKILL if it has
// not exited within the grace period. It returns once the process is gone.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// stopAll stops every process still running, in reverse start order
// (frontends before the workers they route to).
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	procs := ps.procs
	ps.procs = nil
	ps.mu.Unlock()
	for i := len(procs) - 1; i >= 0; i-- {
		procs[i].stop()
	}
}

// waitHTTP polls url until it answers 200 with a body containing want.
func waitHTTP(ctx context.Context, hc *http.Client, url, want string) error {
	deadline := time.Now().Add(20 * time.Second)
	var last error
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := hc.Get(url)
		if err == nil {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.Contains(string(body), want) {
				return nil
			}
			last = fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
		} else {
			last = err
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("waiting for %s: %v", url, last)
}

// peakRSSMB reads the process's resident-set high-water mark from
// /proc/<pid>/status (VmHWM); 0 when the file is unreadable (process gone,
// or not Linux).
func (p *proc) peakRSSMB() float64 { return vmHWM(p.cmd.Process.Pid) }

func vmHWM(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeStats is what a dvrd started with -pprof-addr reveals about its
// Go runtime: the MemStats block at the end of the debug=1 allocs profile.
type runtimeStats struct {
	Mallocs       float64
	GCCPUFraction float64
}

func (p *proc) runtimeStats(ctx context.Context, hc *http.Client) (runtimeStats, error) {
	var rs runtimeStats
	if p.pprof == "" {
		return rs, fmt.Errorf("%s: started without -pprof-addr", p.name)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.pprof+"/debug/pprof/allocs?debug=1", nil)
	if err != nil {
		return rs, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return rs, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			rs.Mallocs, _ = strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
		if v, ok := strings.CutPrefix(line, "# GCCPUFraction = "); ok {
			rs.GCCPUFraction, _ = strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return rs, sc.Err()
}

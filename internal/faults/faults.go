// Package faults is the fault-injection seam of the dvrd service: a small
// set of hook points (a filesystem interface for the cache spill, a
// pre-simulation hook for scripted worker panics and slowdowns) that
// default to no-ops in production and are swapped for scripted fault
// schedules by the chaos test suite. The paper's mechanism survives bad
// speculation by validating and falling back (PAPER.md §4); the serving
// layer earns the same property by being exercised under these injected
// failures — see internal/service's chaos tests.
package faults

import (
	"io/fs"
	"net/http"
	"os"
)

// FS is the filesystem surface the service's disk paths go through. The
// production implementation (OS) delegates to the os package; FaultyFS
// wraps any FS with scripted failures and corruption. Keeping the surface
// this narrow — exactly the calls the cache spill makes — is what keeps
// the injection honest: there is no side door to the disk.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadFile(name string) ([]byte, error)
	// WriteTemp writes data to a new uniquely-named file in dir (pattern
	// as in os.CreateTemp, mode 0600) through one open handle and returns
	// its path; the caller publishes it with Rename. A failed write leaves
	// no file behind.
	WriteTemp(dir, pattern string, data []byte) (string, error)
	// AppendFile appends data to name, creating it if absent — the
	// journal-append primitive of the frontend ledger. The write is not
	// atomic: a crash mid-append leaves a torn tail, which is exactly the
	// failure the ledger's per-record seals are built to detect.
	AppendFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) WriteTemp(dir, pattern string, data []byte) (string, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return "", err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}
func (osFS) AppendFile(name string, data []byte, perm os.FileMode) error {
	f, err := os.OpenFile(name, os.O_APPEND|os.O_CREATE|os.O_WRONLY, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// Injector bundles every hook point. A nil *Injector (the production
// default) and a zero Injector both behave as "no faults": the accessors
// below are nil-safe, so the service never branches on whether injection
// is configured.
type Injector struct {
	// FS overrides the filesystem used for cache-spill I/O; nil means OS().
	FS FS
	// BeforeSim runs at the start of every pooled simulation with the
	// job's cache key. A schedule may sleep here (slow-simulation faults)
	// or panic (scripted worker crashes); the pool's recover path must
	// contain either.
	BeforeSim func(key string)
	// SimLivelock, when set, returns the committed-instruction count after
	// which the keyed job's commit stream should wedge permanently (0 =
	// run normally): the scripted livelock that exercises the retirement
	// watchdog end to end, from the stuck engine hold through the typed
	// error and forensics dump to the worker staying healthy.
	SimLivelock func(key string) uint64
	// Net injects network faults (refused connections, mid-body resets,
	// latency, partitions) into the frontend→replica transport; nil means
	// a clean network.
	Net *NetFaults
	// Crash schedules deterministic process-death points (the frontend's
	// ledger-write boundaries); nil means none fire.
	Crash *CrashPlan
}

// Filesystem returns the FS to use for spill I/O; the real one unless
// overridden.
func (in *Injector) Filesystem() FS {
	if in == nil || in.FS == nil {
		return OS()
	}
	return in.FS
}

// Sim invokes the pre-simulation hook, if any. It may panic by design.
func (in *Injector) Sim(key string) {
	if in != nil && in.BeforeSim != nil {
		in.BeforeSim(key)
	}
}

// LivelockAfter returns the scripted livelock point for the keyed job, or
// 0 when none is scheduled.
func (in *Injector) LivelockAfter(key string) uint64 {
	if in == nil || in.SimLivelock == nil {
		return 0
	}
	return in.SimLivelock(key)
}

// CrashAt reports whether the scheduled crash at pt should fire now; the
// caller then dies (panics with http.ErrAbortHandler, aborts the request)
// as a process kill at that exact boundary would.
func (in *Injector) CrashAt(pt CrashPoint) bool {
	if in == nil || in.Crash == nil {
		return false
	}
	return in.Crash.hit(pt)
}

// Transport wraps inner (nil means http.DefaultTransport) with the
// network-fault schedule, or returns it untouched when no network faults
// are configured.
func (in *Injector) Transport(inner http.RoundTripper) http.RoundTripper {
	if in == nil || in.Net == nil {
		if inner == nil {
			return http.DefaultTransport
		}
		return inner
	}
	return in.Net.Transport(inner)
}

package faults

import (
	"errors"
	"io/fs"
	"math/rand/v2"
	"os"
	"sync"
	"time"
)

// ErrInjected marks a scripted failure so tests (and error messages) can
// tell injected faults from real ones.
var ErrInjected = errors.New("faults: injected failure")

// FaultyFS wraps an FS with a deterministic, seeded fault schedule:
// every FailWriteEvery-th write fails with ErrInjected, every
// CorruptWriteEvery-th write lands with one byte flipped (a torn or
// bit-rotted spill entry), and every FailReadEvery-th read fails. A zero
// period disables that fault. The schedule counts calls, not files, so a
// fixed seed plus a fixed request order replays the same faults —
// which is what lets a chaos run be re-investigated.
type FaultyFS struct {
	Inner FS

	FailWriteEvery    int
	CorruptWriteEvery int
	FailReadEvery     int

	mu     sync.Mutex
	rng    *rand.Rand
	writes int
	reads  int

	writesFailed    int
	writesCorrupted int
	readsFailed     int
}

// NewFaultyFS builds a FaultyFS over inner with a seeded corruption RNG.
// Fault periods are set on the returned struct before first use.
func NewFaultyFS(inner FS, seed uint64) *FaultyFS {
	if inner == nil {
		inner = OS()
	}
	return &FaultyFS{Inner: inner, rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Counters reports how many faults actually fired (writes failed, writes
// corrupted, reads failed) — chaos tests assert the schedule was live.
func (f *FaultyFS) Counters() (writesFailed, writesCorrupted, readsFailed int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writesFailed, f.writesCorrupted, f.readsFailed
}

func (f *FaultyFS) MkdirAll(path string, perm os.FileMode) error {
	return f.Inner.MkdirAll(path, perm)
}

func (f *FaultyFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	f.reads++
	fail := f.FailReadEvery > 0 && f.reads%f.FailReadEvery == 0
	if fail {
		f.readsFailed++
	}
	f.mu.Unlock()
	if fail {
		return nil, ErrInjected
	}
	return f.Inner.ReadFile(name)
}

// WriteTemp counts one write per call: a failed one creates no file, a
// corrupted one lands with one byte flipped.
func (f *FaultyFS) WriteTemp(dir, pattern string, data []byte) (string, error) {
	f.mu.Lock()
	f.writes++
	fail := f.FailWriteEvery > 0 && f.writes%f.FailWriteEvery == 0
	corrupt := !fail && f.CorruptWriteEvery > 0 && f.writes%f.CorruptWriteEvery == 0
	if fail {
		f.writesFailed++
	}
	if corrupt && len(data) > 0 {
		f.writesCorrupted++
		// Flip one byte at a seeded offset; the copy keeps the caller's
		// buffer intact (it may retry through a healthy path later).
		mutated := make([]byte, len(data))
		copy(mutated, data)
		mutated[f.rng.IntN(len(mutated))] ^= 0xff
		data = mutated
	}
	f.mu.Unlock()
	if fail {
		return "", ErrInjected
	}
	return f.Inner.WriteTemp(dir, pattern, data)
}

// AppendFile counts as a write under the same fail/corrupt schedule as
// WriteTemp: a failed append drops the record, a corrupted one lands torn —
// both shapes the ledger's per-record seals must absorb.
func (f *FaultyFS) AppendFile(name string, data []byte, perm os.FileMode) error {
	f.mu.Lock()
	f.writes++
	fail := f.FailWriteEvery > 0 && f.writes%f.FailWriteEvery == 0
	corrupt := !fail && f.CorruptWriteEvery > 0 && f.writes%f.CorruptWriteEvery == 0
	if fail {
		f.writesFailed++
	}
	if corrupt && len(data) > 0 {
		f.writesCorrupted++
		// Truncate the record mid-way: the torn-append shape, distinct from
		// WriteTemp's bit flip, because appends really do die half-written.
		data = data[:f.rng.IntN(len(data))]
	}
	f.mu.Unlock()
	if fail {
		return ErrInjected
	}
	return f.Inner.AppendFile(name, data, perm)
}

func (f *FaultyFS) Rename(oldpath, newpath string) error { return f.Inner.Rename(oldpath, newpath) }
func (f *FaultyFS) Remove(name string) error             { return f.Inner.Remove(name) }
func (f *FaultyFS) ReadDir(name string) ([]fs.DirEntry, error) {
	return f.Inner.ReadDir(name)
}

// CrashPoint names a deterministic kill site inside the service — a
// boundary where a process death has a distinct durability consequence.
type CrashPoint string

const (
	// FrontendCrashBeforeLedgerWrite fires in the frontend's batch
	// admission path after the job is assigned but before its accepted
	// record reaches the ledger: the crash loses the job entirely (no 202
	// was sent, no durable trace exists) and a client retry starts fresh.
	FrontendCrashBeforeLedgerWrite CrashPoint = "frontend-before-ledger-write"
	// FrontendCrashAfterLedgerWrite fires immediately after the accepted
	// record is durable but before the 202 reaches the client: the next
	// frontend boot recovers and runs the job, and the client's retry with
	// the same idempotency key attaches to it instead of re-submitting.
	FrontendCrashAfterLedgerWrite CrashPoint = "frontend-after-ledger-write"
)

// CrashPlan schedules one-shot crashes at named points. Arm(pt, n) makes
// the n-th hit of pt fire (n=1 means the next one); each armed point fires
// exactly once. The chaos suite uses it to kill a frontend at torn-write
// boundaries deterministically instead of racing a signal against the
// admission path.
type CrashPlan struct {
	mu    sync.Mutex
	armed map[CrashPoint]int
	fired map[CrashPoint]int
}

// Arm schedules pt to fire on its n-th future hit (n < 1 means 1).
func (p *CrashPlan) Arm(pt CrashPoint, n int) {
	if n < 1 {
		n = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.armed == nil {
		p.armed = make(map[CrashPoint]int)
	}
	p.armed[pt] = n
}

// Fired reports how many times pt has fired.
func (p *CrashPlan) Fired(pt CrashPoint) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired[pt]
}

// hit records one arrival at pt and reports whether the crash fires now.
func (p *CrashPlan) hit(pt CrashPoint) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	n, ok := p.armed[pt]
	if !ok {
		return false
	}
	n--
	if n > 0 {
		p.armed[pt] = n
		return false
	}
	delete(p.armed, pt)
	if p.fired == nil {
		p.fired = make(map[CrashPoint]int)
	}
	p.fired[pt]++
	return true
}

// SimFaults is a scripted BeforeSim hook: every PanicEvery-th simulation
// panics (a worker crash), every SlowEvery-th stalls for Slow (an
// artificially slow job that occupies a worker and backs up the queue).
// Zero periods disable that fault. Wire it as Injector.BeforeSim.
type SimFaults struct {
	PanicEvery int
	SlowEvery  int
	Slow       time.Duration

	mu     sync.Mutex
	n      int
	panics int
	slows  int
}

// BeforeSim implements the hook. It panics by design when the schedule
// says so; the pool worker's recover path must contain it.
func (s *SimFaults) BeforeSim(key string) {
	s.mu.Lock()
	s.n++
	doPanic := s.PanicEvery > 0 && s.n%s.PanicEvery == 0
	doSlow := !doPanic && s.SlowEvery > 0 && s.n%s.SlowEvery == 0
	if doPanic {
		s.panics++
	}
	if doSlow {
		s.slows++
	}
	s.mu.Unlock()
	if doSlow {
		time.Sleep(s.Slow)
	}
	if doPanic {
		panic(ErrInjected)
	}
}

// Counters reports how many panics and slowdowns fired.
func (s *SimFaults) Counters() (panics, slows int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.panics, s.slows
}

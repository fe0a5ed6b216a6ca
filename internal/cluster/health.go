package cluster

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"
)

// State is a replica's health as the prober sees it.
type State int

const (
	// StateUp: the replica answers its readiness probe; new work routes
	// to it.
	StateUp State = iota
	// StateDraining: the replica is alive but shutting down gracefully —
	// it finishes work it already owns but must not receive new cells.
	StateDraining
	// StateDead: the replica failed FailThreshold consecutive probes (or
	// the data path reported a decisive transport failure); its in-flight
	// jobs re-route to ring successors.
	StateDead
)

func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDraining:
		return "draining"
	case StateDead:
		return "dead"
	default:
		return "unknown"
	}
}

// Status is one probe outcome. Err nil means the replica answered; Draining
// distinguishes a deliberate graceful shutdown (ready endpoint says "not
// ready, still alive") from full health.
type Status struct {
	Draining bool
	Err      error
}

// Probe asks one replica for its readiness. Implementations must honor ctx
// (the prober bounds each probe with ProbeConfig.Timeout).
type Probe func(ctx context.Context, replica string) Status

// ProbeConfig shapes the heartbeat loop.
type ProbeConfig struct {
	// Interval between heartbeats per replica; 0 means 1s. Each sleep is
	// jittered ±25% so a fleet of frontends does not synchronize its
	// probes into bursts.
	Interval time.Duration
	// Timeout bounds one probe; 0 means half the interval.
	Timeout time.Duration
	// FailThreshold is how many consecutive probe failures turn a replica
	// dead; 0 means 3. One success restores it to up immediately.
	FailThreshold int
	// Seed seeds the jitter; 0 means 1. A fixed seed replays the same
	// probe schedule, which is what keeps chaos runs re-investigable.
	Seed uint64
}

func (c ProbeConfig) withDefaults() ProbeConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Interval / 2
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ReplicaHealth is one replica's probe-visible state, snapshotted for
// metrics.
type ReplicaHealth struct {
	Name          string
	State         State
	ConsecFails   int
	ProbesTotal   uint64
	ProbeFailures uint64
	LastError     string
	// LastTraceID is the distributed-trace id of the most recent
	// data-path failure reported against this replica ("" when tracing
	// is off or only probes have failed).
	LastTraceID string
}

// Prober drives per-replica state from periodic heartbeats. Every replica
// starts up (optimistically: the first probe fires immediately and
// corrects a wrong guess within one interval). The data path feeds back
// through ReportFailure — a transport failure that survived the client's
// own retry budget is stronger evidence than a missed heartbeat, so it
// kills the replica immediately; the next successful probe resurrects it.
type Prober struct {
	cfg   ProbeConfig
	probe Probe

	mu   sync.Mutex
	reps map[string]*replicaState

	stop chan struct{}
	wg   sync.WaitGroup
}

type replicaState struct {
	state         State
	consecFails   int
	probesTotal   uint64
	probeFailures uint64
	lastErr       string
	lastTrace     string
}

// NewProber builds (but does not start) a prober over the replica set.
func NewProber(replicas []string, probe Probe, cfg ProbeConfig) *Prober {
	p := &Prober{
		cfg:   cfg.withDefaults(),
		probe: probe,
		reps:  make(map[string]*replicaState, len(replicas)),
		stop:  make(chan struct{}),
	}
	for _, r := range replicas {
		p.reps[r] = &replicaState{state: StateUp}
	}
	return p
}

// Start launches one heartbeat loop per replica. Call Stop to end them.
func (p *Prober) Start() {
	p.mu.Lock()
	reps := make([]string, 0, len(p.reps))
	for r := range p.reps {
		reps = append(reps, r)
	}
	p.mu.Unlock()
	for i, r := range reps {
		p.wg.Add(1)
		go p.loop(r, uint64(i))
	}
}

// Stop ends the heartbeat loops and waits for them. Idempotent-unsafe:
// call once (the frontend's Shutdown does).
func (p *Prober) Stop() {
	close(p.stop)
	p.wg.Wait()
}

func (p *Prober) loop(replica string, salt uint64) {
	defer p.wg.Done()
	rng := rand.New(rand.NewPCG(p.cfg.Seed, salt^0x9e3779b97f4a7c15))
	// First probe immediately: a frontend that boots into a half-dead
	// fleet should learn so within one Timeout, not one Interval.
	for {
		p.probeOnce(replica)
		// Jitter: interval × [0.75, 1.25).
		d := time.Duration(float64(p.cfg.Interval) * (0.75 + 0.5*rng.Float64()))
		t := time.NewTimer(d)
		select {
		case <-p.stop:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

func (p *Prober) probeOnce(replica string) {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.Timeout)
	st := p.probe(ctx, replica)
	cancel()
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.reps[replica]
	if !ok {
		return
	}
	r.probesTotal++
	switch {
	case st.Err != nil:
		r.probeFailures++
		r.consecFails++
		r.lastErr = st.Err.Error()
		if r.consecFails >= p.cfg.FailThreshold {
			r.state = StateDead
		}
	case st.Draining:
		r.consecFails = 0
		r.lastErr = ""
		r.state = StateDraining
	default:
		r.consecFails = 0
		r.lastErr = ""
		r.state = StateUp
	}
}

// ReportFailure records a decisive data-path transport failure (the
// retrying client exhausted its budget against this replica) and marks it
// dead immediately — new work routes around it now, not FailThreshold
// heartbeats from now. A later successful probe restores it. traceID is
// the distributed-trace id of the failing exchange, so the replica's
// health snapshot can point at the exact request that killed it; an
// empty id keeps the previous annotation.
func (p *Prober) ReportFailure(replica string, err error, traceID string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.reps[replica]
	if !ok {
		return
	}
	r.consecFails++
	r.state = StateDead
	if err != nil {
		r.lastErr = err.Error()
	}
	if traceID != "" {
		r.lastTrace = traceID
	}
}

// State returns a replica's current state (dead for unknown names, so a
// misconfigured route never looks healthy).
func (p *Prober) State(replica string) State {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r, ok := p.reps[replica]; ok {
		return r.state
	}
	return StateDead
}

// Snapshot reports every replica's health, sorted by name upstream (the
// caller sorts; map order here is arbitrary).
func (p *Prober) Snapshot() []ReplicaHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ReplicaHealth, 0, len(p.reps))
	for name, r := range p.reps {
		out = append(out, ReplicaHealth{
			Name:          name,
			State:         r.state,
			ConsecFails:   r.consecFails,
			ProbesTotal:   r.probesTotal,
			ProbeFailures: r.probeFailures,
			LastError:     r.lastErr,
			LastTraceID:   r.lastTrace,
		})
	}
	return out
}

// Counts tallies replicas by state.
func (p *Prober) Counts() (up, draining, dead int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.reps {
		switch r.state {
		case StateUp:
			up++
		case StateDraining:
			draining++
		case StateDead:
			dead++
		}
	}
	return up, draining, dead
}

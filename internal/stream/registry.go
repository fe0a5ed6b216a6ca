package stream

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dvr/internal/service/api"
)

// Config sizes a Registry. Zero values mean the documented defaults.
type Config struct {
	// ReplayEntries bounds each job's event log: how far a session may
	// fall behind before it loses telemetry, and how far back a
	// Last-Event-ID resume reaches; 0 means 4096. Cell-done and job-done
	// events are kept past the bound.
	ReplayEntries int
}

// Registry owns the broadcasters of every job on one server. Construct
// with NewRegistry; call Close on server shutdown.
type Registry struct {
	replayEntries int

	mu     sync.Mutex
	jobs   map[string]*Broadcaster
	closed bool

	seq          atomic.Uint64 // session id source
	opened       atomic.Uint64
	published    atomic.Uint64
	droppedTotal atomic.Uint64
}

// NewRegistry builds a registry.
func NewRegistry(cfg Config) *Registry {
	if cfg.ReplayEntries <= 0 {
		cfg.ReplayEntries = 4096
	}
	return &Registry{replayEntries: cfg.ReplayEntries, jobs: make(map[string]*Broadcaster)}
}

// Create registers a broadcaster for jobID (idempotent: an existing one
// is returned, so a job and its early subscribers cannot race).
func (r *Registry) Create(jobID string) *Broadcaster { return r.CreateAt(jobID, 1) }

// CreateAt registers a broadcaster for jobID whose event ids start at
// startID instead of 1 — how a recovered job keeps its SSE ids strictly
// increasing across frontend generations: each reboot re-creates the
// broadcaster one epoch up, so a subscriber resuming with a pre-crash
// Last-Event-ID never sees an id collision with post-crash events.
// Idempotent like Create (an existing broadcaster keeps its sequence).
func (r *Registry) CreateAt(jobID string, startID uint64) *Broadcaster {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.jobs[jobID]; ok {
		return b
	}
	b := &Broadcaster{
		jobID:  jobID,
		reg:    r,
		limit:  r.replayEntries,
		nextID: max(startID, 1),
	}
	if !r.closed {
		r.jobs[jobID] = b
	}
	return b
}

// Close shuts the registry down: every broadcaster closes (its sessions
// read what is left, then end), and future Creates return detached
// broadcasters. Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	r.closed = true
	bs := r.broadcastersLocked()
	r.mu.Unlock()
	for _, b := range bs {
		b.Close()
	}
}

func (r *Registry) broadcastersLocked() []*Broadcaster {
	out := make([]*Broadcaster, 0, len(r.jobs))
	for _, b := range r.jobs {
		out = append(out, b)
	}
	return out
}

// Metrics is the registry's accounting snapshot (api.Metrics source).
type Metrics struct {
	SessionsActive  int
	SessionsOpened  uint64
	EventsPublished uint64
	EventsDropped   uint64
	Sessions        []api.StreamSession
}

// Snapshot collects the registry counters and the per-session accounting
// of every attached session, sorted by session id.
func (r *Registry) Snapshot() Metrics {
	m := Metrics{
		SessionsOpened:  r.opened.Load(),
		EventsPublished: r.published.Load(),
		EventsDropped:   r.droppedTotal.Load(),
	}
	r.mu.Lock()
	bs := r.broadcastersLocked()
	r.mu.Unlock()
	now := time.Now()
	for _, b := range bs {
		b.mu.Lock()
		for _, s := range b.sessions {
			m.Sessions = append(m.Sessions, api.StreamSession{
				ID:         fmt.Sprintf("sess-%d", s.id),
				JobID:      b.jobID,
				Delivered:  s.delivered,
				Dropped:    s.dropped,
				AgeSeconds: now.Sub(s.opened).Seconds(),
			})
		}
		b.mu.Unlock()
	}
	m.SessionsActive = len(m.Sessions)
	sort.Slice(m.Sessions, func(i, j int) bool { return m.Sessions[i].ID < m.Sessions[j].ID })
	return m
}

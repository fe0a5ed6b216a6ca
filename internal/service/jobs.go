package service

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dvr/internal/service/api"
	"dvr/internal/stream"
)

// job is one async batch in flight or finished.
type job struct {
	id    string
	total int
	// idem is the client's idempotency key, if any: the handle by which a
	// retried submission re-attaches to this job instead of re-executing.
	idem string
	// doneCh closes when the job finishes, so a duplicate synchronous
	// submission can wait for the original instead of racing it.
	doneCh chan struct{}

	// bc is the job's event broadcaster (nil for a finished job restored
	// from the ledger, whose stream died with the previous process);
	// intervals counts interval events published so far — the live
	// progress JobStatus reports.
	bc        *stream.Broadcaster
	intervals atomic.Uint64

	mu    sync.Mutex
	done  int
	state string
	err   error
	batch *api.BatchResponse
	// traceID is the distributed-tracing trace the job runs under — the
	// submitting request's trace (or the recovered trace id replayed from
	// the ledger). "" when tracing is disabled.
	traceID string
}

// setTrace records the trace the job's spans belong to. No-op for "" so
// the disabled-tracing path stays branchless at call sites.
func (j *job) setTrace(id string) {
	if id == "" {
		return
	}
	j.mu.Lock()
	j.traceID = id
	j.mu.Unlock()
}

// trace returns the job's trace id ("" when tracing is disabled).
func (j *job) trace() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.traceID
}

// cellDone records one completed cell and reports the new count.
func (j *job) cellDone() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done++
	return j.done
}

// doneCount reports completed cells.
func (j *job) doneCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done
}

// finish records the job outcome and releases waiters. Idempotent: a
// recovered job that somehow finishes twice keeps its first outcome.
func (j *job) finish(batch *api.BatchResponse, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != api.JobRunning {
		return
	}
	if err != nil {
		j.state = api.JobError
		j.err = err
	} else {
		j.state = api.JobDone
		j.batch = batch
	}
	close(j.doneCh)
}

// outcome returns the finished job's result (nil, nil while running).
func (j *job) outcome() (*api.BatchResponse, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.batch, j.err
}

// status snapshots the job for the wire, including the live progress
// fields (interval count, attached subscribers).
func (j *job) status() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := api.JobStatus{ID: j.id, State: j.state, Done: j.done, Total: j.total,
		Intervals: j.intervals.Load()}
	if j.bc != nil {
		st.Subscribers = j.bc.Subscribers()
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.state == api.JobDone {
		st.Batch = j.batch
	}
	return st
}

// jobStore tracks async batch jobs. The WaitGroup covers every job
// goroutine, which is what graceful shutdown drains: the core's Shutdown
// waits for it, so a SIGTERM never abandons a job a client was polling.
type jobStore struct {
	mu     sync.Mutex
	seq    uint64
	jobs   map[string]*job
	byIdem map[string]*job
	wg     sync.WaitGroup
}

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*job), byIdem: make(map[string]*job)}
}

// create registers a new running job of total cells, unless idem names an
// existing job — the atomic admission-time dedup: two racing submissions
// with the same key get the same *job and exactly one sees created=true
// (that one runs the batch; the other returns the original's identity).
// The broadcaster is attached before the job becomes visible, so an early
// subscriber (one racing the 202 response) cannot find a streamless job.
func (s *jobStore) create(total int, idem string, streams *stream.Registry) (j *job, created bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.byIdem[idem]; ok {
		return j, false
	}
	s.seq++
	id := fmt.Sprintf("job-%d", s.seq)
	return s.add(id, total, idem, streams.Create(id)), true
}

// restore re-registers a job replayed from the frontend ledger under its
// original id, re-anchoring the id sequence past it so new jobs never
// collide with recovered ones. bc may carry a later event-id epoch (see
// stream.Registry.CreateAt). The caller finishes completed jobs.
func (s *jobStore) restore(id string, total int, idem string, bc *stream.Broadcaster) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j
	}
	var n uint64
	if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > s.seq {
		s.seq = n
	}
	return s.add(id, total, idem, bc)
}

// add registers a running job; the caller holds s.mu.
func (s *jobStore) add(id string, total int, idem string, bc *stream.Broadcaster) *job {
	j := &job{id: id, total: total, idem: idem, state: api.JobRunning, doneCh: make(chan struct{}), bc: bc}
	s.jobs[id] = j
	if idem != "" {
		s.byIdem[idem] = j
	}
	return j
}

// getIdem looks a job up by idempotency key.
func (s *jobStore) getIdem(key string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byIdem[key]
	return j, ok
}

// get looks a job up by id.
func (s *jobStore) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// counts returns (active, finished) job counts.
func (s *jobStore) counts() (active, finished int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == api.JobRunning {
			active++
		} else {
			finished++
		}
		j.mu.Unlock()
	}
	return active, finished
}

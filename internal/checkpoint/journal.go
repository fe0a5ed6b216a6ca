package checkpoint

import (
	"errors"

	"dvr/internal/cpu"
	"dvr/internal/workloads"
)

// Cadence is the committed-instruction interval at which the command-line
// tools journal a run of roi timed instructions (0 means the default ROI of
// 300 000): a handful of checkpoints per run whatever its length, but not
// so many that encoding them dominates a short run.
func Cadence(roi uint64) uint64 {
	if roi == 0 {
		roi = 300_000
	}
	return min(max(roi/5, 10_000), 100_000)
}

// Journal is one job's checkpoint file in a Store, and the one protocol
// every durable front end (dvrd, dvrbench -checkpoint-dir, dvrsim
// -checkpoint) runs a job under. A nil Journal runs the job once, without
// resume or saves.
type Journal struct {
	store *Store
	key   string
	job   State // the job's identity; each save fills in Core
}

// Journal returns the journal filed under key for the job (engine, ref,
// tech, cfg). A nil Store has a nil Journal.
func (s *Store) Journal(key, engine string, ref workloads.Ref, tech string, cfg cpu.Config) *Journal {
	if s == nil {
		return nil
	}
	return &Journal{store: s, key: key, job: State{Engine: engine, Ref: ref, Technique: tech, Config: cfg}}
}

// Run runs the job through run, which must start from resume when it is
// non-nil and hand save each checkpoint it takes:
//   - a journal that names another job is removed, and the job runs fresh;
//   - save never aborts the run: a failed write is counted (WriteErrors) and
//     the run goes on without that safety net;
//   - a resume that fails with cpu.ErrSnapshotMismatch (shape drift the
//     digest cannot see) removes the journal and runs once more from
//     scratch; a restore fails before the first trace sample or event, so
//     the retry starts clean;
//   - the journal is removed when the run succeeds or livelocks (the wedge
//     is deterministic: resuming near it would only trip the watchdog
//     again), and kept on any other error, for the next run to resume.
func (j *Journal) Run(run func(resume *cpu.Snapshot, save func(*cpu.Snapshot) error) (cpu.Result, error)) (cpu.Result, error) {
	if j == nil {
		return run(nil, nil)
	}
	var resume *cpu.Snapshot
	if st, err := j.store.Load(j.key); err == nil {
		if st.Matches(j.job.Engine, j.job.Ref, j.job.Technique, j.job.Config) == nil {
			resume = &st.Core
			j.store.resumed.Add(1)
		} else {
			_ = j.store.Remove(j.key)
		}
	}
	res, err := run(resume, j.save)
	if resume != nil && errors.Is(err, cpu.ErrSnapshotMismatch) {
		_ = j.store.Remove(j.key)
		res, err = run(nil, j.save)
	}
	var le *cpu.LivelockError
	if err == nil || errors.As(err, &le) {
		_ = j.store.Remove(j.key)
	}
	return res, err
}

func (j *Journal) save(snap *cpu.Snapshot) error {
	st := j.job
	st.Core = *snap
	if err := j.store.Save(j.key, &st); err != nil {
		j.store.writeErrors.Add(1)
		return nil
	}
	j.store.written.Add(1)
	return nil
}

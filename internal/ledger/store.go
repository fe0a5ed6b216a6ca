package ledger

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"dvr/internal/faults"
	"dvr/internal/sealed"
)

// Ext is the per-job journal file suffix under a Store directory. Side
// journals (hedge records for jobs that never had a journal of their own,
// e.g. synchronous batches) use SideExt so Scan never mistakes them for
// recoverable jobs.
const (
	Ext     = ".job"
	SideExt = ".log"
)

// Store keeps one append-only journal per job as <dir>/<jobID>.job in a
// sealed.Store, which names, quarantines, drops and atomically rewrites
// the files; the append is the ledger's own. Appends go through
// faults.FS.AppendFile — deliberately non-atomic, because the per-record
// seals are what absorb a crash mid-append — and are serialized by a
// store-wide mutex so records from concurrent handlers never interleave
// mid-record.
type Store struct {
	files *sealed.Store
	fs    faults.FS

	mu sync.Mutex // serializes appends (and append-vs-repair)

	appends      atomic.Uint64
	appendErrors atomic.Uint64
	tornRepaired atomic.Uint64
}

// NewStore opens (creating if needed) a ledger directory. A nil fsys
// means the real filesystem.
func NewStore(dir string, fsys faults.FS) (*Store, error) {
	if fsys == nil {
		fsys = faults.OS()
	}
	files, err := sealed.Open(dir, Ext, fsys)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	return &Store{files: files, fs: fsys}, nil
}

// Path returns the journal file path for a job id.
func (s *Store) Path(jobID string) string { return s.files.Path(jobID) }

// Appends returns how many records were durably appended; AppendErrors how
// many appends failed (the job proceeded without that durability point);
// Quarantined how many corrupt journals were moved to quarantine/;
// TornRepaired how many torn tails were dropped and the journal rewritten.
func (s *Store) Appends() uint64      { return s.appends.Load() }
func (s *Store) AppendErrors() uint64 { return s.appendErrors.Load() }
func (s *Store) Quarantined() uint64  { return s.files.Quarantined() }
func (s *Store) TornRepaired() uint64 { return s.tornRepaired.Load() }

// Append durably appends one record to the job's journal, creating it on
// first write.
func (s *Store) Append(jobID string, rec Record) error {
	return s.append(s.Path(jobID), rec)
}

// AppendSide appends one record to a side journal <dir>/<name>.log — the
// home of hedge records whose request has no per-job journal (synchronous
// batches and single sims). Scan skips side journals.
func (s *Store) AppendSide(name string, rec Record) error {
	return s.append(filepath.Join(s.files.Dir(), name+SideExt), rec)
}

func (s *Store) append(path string, rec Record) error {
	data, err := Encode(rec)
	if err != nil {
		s.appendErrors.Add(1)
		return err
	}
	s.mu.Lock()
	err = s.fs.AppendFile(path, data, 0o644)
	s.mu.Unlock()
	if err != nil {
		s.appendErrors.Add(1)
		return fmt.Errorf("ledger: append %s: %w", filepath.Base(path), err)
	}
	s.appends.Add(1)
	return nil
}

// Load reads, verifies and decodes the journal for a job id. A missing
// file is an fs.ErrNotExist-wrapped error; mid-file corruption
// (sealed.ErrCorrupt) quarantines the journal, version skew (ErrVersion)
// removes it, and a torn tail is repaired (see decode).
func (s *Store) Load(jobID string) (recs []Record, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	err = s.files.Get(jobID, func(data []byte) (derr error) {
		recs, _, derr = s.decode(jobID, data)
		return derr
	})
	return recs, err
}

// decode parses one journal and, when its tail is torn, drops the broken
// final record and atomically rewrites the file to its valid prefix, so a
// later append cannot convert a torn tail into mid-file corruption;
// repaired reports that it did. A failed repair leaves the torn file in
// place — it still decodes to the same prefix, so nothing is lost, only
// the next boot repairs again. The caller holds mu.
func (s *Store) decode(jobID string, data []byte) (recs []Record, repaired bool, err error) {
	recs, torn, err := DecodeJournal(data)
	if err != nil {
		return nil, false, err
	}
	if torn == 0 {
		return recs, false, nil
	}
	buf := make([]byte, 0, 1024)
	for _, rec := range recs {
		line, err := Encode(rec)
		if err != nil {
			return recs, false, nil
		}
		buf = append(buf, line...)
	}
	if s.files.Put(jobID, buf) != nil {
		return recs, false, nil
	}
	s.tornRepaired.Add(1)
	return recs, true, nil
}

// Job summarizes one journal: what was accepted, whether it completed,
// and how many times a rebooted frontend has already recovered it.
type Job struct {
	// ID is the job id (the journal file's base name).
	ID string
	// Accepted is the job's accepted record (request, total, idempotency
	// key).
	Accepted *Record
	// Done is the completion record, nil while the job is pending.
	Done *Record
	// Recoveries counts prior recovered records — the job's crash
	// history, and the seed of its stream event-id epoch.
	Recoveries int
}

// Health summarizes a startup Scan.
type Health struct {
	sealed.Health
	Torn      int   // torn tails dropped and repaired
	Pending   []Job // accepted-but-not-done jobs, sorted by id
	Completed []Job // completed jobs (durable dedup window), sorted by id
}

// Scan verifies every journal at startup: corrupt files are quarantined,
// version-skewed ones dropped, torn tails repaired, and the surviving
// jobs partitioned into pending (to recover) and completed (to keep
// serving idempotent re-submissions).
func (s *Store) Scan() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	var h Health
	h.Health = s.files.Scan(func(id string, data []byte) error {
		recs, repaired, err := s.decode(id, data)
		if err != nil {
			return err
		}
		if repaired {
			h.Torn++
		}
		job := Job{ID: id}
		for i := range recs {
			switch recs[i].Kind {
			case KindAccepted:
				if job.Accepted == nil {
					job.Accepted = &recs[i]
				}
			case KindRecovered:
				job.Recoveries++
			case KindDone:
				job.Done = &recs[i]
			}
		}
		switch {
		case job.Accepted == nil:
			// A journal with no accepted record (a tear ate the first
			// append) cannot be recovered or deduplicated; nothing to do.
		case job.Done != nil:
			h.Completed = append(h.Completed, job)
		default:
			h.Pending = append(h.Pending, job)
		}
		return nil
	})
	sort.Slice(h.Pending, func(i, j int) bool { return h.Pending[i].ID < h.Pending[j].ID })
	sort.Slice(h.Completed, func(i, j int) bool { return h.Completed[i].ID < h.Completed[j].ID })
	return h
}

// Remove deletes the journal for a job id (e.g. an operator pruning the
// dedup window). Removing a missing journal is not an error.
func (s *Store) Remove(jobID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.files.Remove(jobID)
}

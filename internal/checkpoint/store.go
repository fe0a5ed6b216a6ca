package checkpoint

import (
	"fmt"
	"sort"
	"sync/atomic"

	"dvr/internal/faults"
	"dvr/internal/sealed"
)

// ext is the checkpoint file suffix under a Store directory.
const ext = ".ckpt"

// Store keeps checkpoints as <dir>/<key>.ckpt, one per job key: the
// Encode/Decode codec over the embedded sealed.Store, which provides Path,
// Quarantined and Remove (a completed job no longer needs its resume
// point) and decides what happens to corrupt and version-skewed files. It
// counts what its Journals did beside Quarantined.
type Store struct {
	*sealed.Store
	written, resumed, writeErrors atomic.Uint64
}

// Written counts the checkpoints its Journals saved, Resumed the runs they
// resumed, and WriteErrors the saves that failed (the runs went on).
func (s *Store) Written() uint64     { return s.written.Load() }
func (s *Store) Resumed() uint64     { return s.resumed.Load() }
func (s *Store) WriteErrors() uint64 { return s.writeErrors.Load() }

// NewStore opens (creating if needed) a checkpoint directory. A nil fsys
// means the real filesystem.
func NewStore(dir string, fsys faults.FS) (*Store, error) {
	files, err := sealed.Open(dir, ext, fsys)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Store{Store: files}, nil
}

// Save atomically writes the checkpoint for key, replacing any previous
// one. A checkpoint that cannot be written is an error — unlike cache
// spills, durability is the point — but the caller decides whether that
// aborts the run or just loses the safety net.
func (s *Store) Save(key string, st *State) error {
	data, err := Encode(st)
	if err != nil {
		return err
	}
	if err := s.Put(key, data); err != nil {
		return fmt.Errorf("checkpoint: save %s: %w", key, err)
	}
	return nil
}

// Load reads, verifies and decodes the checkpoint for key. A missing file
// is an fs.ErrNotExist-wrapped error (start from scratch); a corrupt file
// (sealed.ErrCorrupt) is quarantined, a version-skewed one (ErrVersion) removed.
func (s *Store) Load(key string) (st *State, err error) {
	err = s.Get(key, func(data []byte) (derr error) {
		st, derr = Decode(data)
		return derr
	})
	return st, err
}

// Health summarizes a startup Scan.
type Health struct {
	sealed.Health
	// Pending lists the keys with a healthy checkpoint (interrupted jobs),
	// sorted; States holds each one decoded, so resuming reads no file twice.
	Pending []string
	States  map[string]*State
}

// Scan verifies every checkpoint at startup: corrupt files are
// quarantined, version-skewed ones dropped, and the healthy ones returned
// decoded so the caller can resume the interrupted jobs they journal.
func (s *Store) Scan() Health {
	h := Health{States: make(map[string]*State)}
	h.Health = s.Store.Scan(func(key string, data []byte) error {
		st, err := Decode(data)
		if err == nil {
			h.Pending = append(h.Pending, key)
			h.States[key] = st
		}
		return err
	})
	sort.Strings(h.Pending)
	return h
}

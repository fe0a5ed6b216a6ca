package sealed

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync/atomic"

	"dvr/internal/faults"
)

// Store keeps one file per key as <dir>/<key><ext>, through a faults.FS
// so the chaos suite can script disk failures. Put publishes atomically;
// Get and Scan hand the bytes to the caller's codec — which alone knows
// what they mean: whole-file or per-record seals, versions, torn tails —
// and act on its verdict:
//
//   - nil: the file is healthy and stays;
//   - an ErrCorrupt-wrapped error: moved to <dir>/quarantine/, never
//     served and never re-read (deleted outright if the move fails);
//   - an ErrSkew-wrapped error: removed;
//   - any other error: left in place for a later read.
//
// So no verdict leaves behind a file a later read could trip over again.
type Store struct {
	dir, ext string
	fs       faults.FS

	quarantined atomic.Uint64
}

// Open opens (creating if needed) one artifact kind's directory; a nil
// fsys means the real filesystem.
func Open(dir, ext string, fsys faults.FS) (*Store, error) {
	if fsys == nil {
		fsys = faults.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("open store %s: %w", dir, err)
	}
	return &Store{dir: dir, ext: ext, fs: fsys}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the file path for key.
func (s *Store) Path(key string) string { return filepath.Join(s.dir, key+s.ext) }

// Quarantined counts the files quarantined since the store opened.
func (s *Store) Quarantined() uint64 { return s.quarantined.Load() }

// Put atomically publishes data as the file for key, replacing any
// previous one. Unique tmp names keep processes sharing a directory from
// clobbering each other, the rename keeps a crashed or failed write from
// ever being visible under the final name, and a failed one leaves no
// tmp file either.
func (s *Store) Put(key string, data []byte) error {
	tmp, err := s.fs.WriteTemp(s.dir, key+".*.tmp", data)
	if err != nil {
		return err
	}
	if err = s.fs.Rename(tmp, s.Path(key)); err != nil {
		_ = s.fs.Remove(tmp)
	}
	return err
}

// Get reads the file for key, hands it to decode, applies the verdict and
// returns it — or the read error, fs.ErrNotExist-wrapped for a missing file.
func (s *Store) Get(key string, decode func(data []byte) error) error {
	path := s.Path(key)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return err
	}
	err = decode(data)
	switch {
	case errors.Is(err, ErrCorrupt):
		qdir := filepath.Join(s.dir, "quarantine")
		_ = s.fs.MkdirAll(qdir, 0o755)
		if s.fs.Rename(path, filepath.Join(qdir, key+s.ext)) != nil {
			_ = s.fs.Remove(path)
		}
		s.quarantined.Add(1)
	case errors.Is(err, ErrSkew):
		_ = s.fs.Remove(path)
	}
	return err
}

// Remove deletes the file for key; a missing file is not an error.
func (s *Store) Remove(key string) error {
	err := s.fs.Remove(s.Path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// Health summarizes a Scan.
type Health struct {
	Scanned     int // files examined
	Healthy     int // files the codec accepted
	Quarantined int // corrupt files moved to quarantine/
	Dropped     int // intact files from another format version, removed
}

// Scan runs Get over every <key><ext> file: the boot pass that shows an
// artifact's health at startup instead of one quarantine at a time as
// reads land on bad files. A file that cannot be read (a disk fault
// mid-scan) counts as scanned and nothing else.
func (s *Store) Scan(decode func(key string, data []byte) error) Health {
	var h Health
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return h
	}
	for _, e := range entries {
		key, ok := strings.CutSuffix(e.Name(), s.ext)
		if e.IsDir() || !ok {
			continue
		}
		h.Scanned++
		err := s.Get(key, func(data []byte) error { return decode(key, data) })
		switch {
		case err == nil:
			h.Healthy++
		case errors.Is(err, ErrCorrupt):
			h.Quarantined++
		case errors.Is(err, ErrSkew):
			h.Dropped++
		}
	}
	return h
}

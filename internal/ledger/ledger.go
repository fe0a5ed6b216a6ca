// Package ledger is the frontend's write-ahead journal of accepted jobs —
// the small durable record in front of the expensive machinery that makes
// the job pipeline exactly-once. A frontend appends a sealed record the
// moment it accepts an async batch (before the 202 leaves the building),
// appends again when the job completes, and replays the journal at boot:
// jobs survive any frontend death, client retries carrying the same
// idempotency key re-attach to the original job instead of re-executing,
// and hedged dispatches record their winner so the loser is cancelled,
// never double-counted.
//
// The format deliberately reuses the one integrity scheme of every durable
// artifact (sealed.Seal/Unseal sha256 footers) and its failure taxonomy: a
// journal is a sequence of sealed single-line JSON records, so every
// record verifies independently. A broken *final* record is a torn append
// — the expected shape of a crash mid-write — and is dropped (and the
// file repaired) rather than condemning the journal; a broken record
// *before* intact ones is real corruption and quarantines the whole file;
// a record from another format version drops the file. Either way nothing
// is ever silently mis-replayed.
package ledger

import (
	"bytes"
	"encoding/json"
	"fmt"

	"dvr/internal/sealed"
	"dvr/internal/service/api"
)

// Version is the journal record format version. Bump it whenever Record
// changes shape incompatibly; old journals then decode to ErrVersion and
// are dropped (the jobs they tracked are re-submitted by clients, which is
// safe — execution is deduplicated downstream by content address).
const Version = 1

// ErrVersion marks an intact journal written by a different record format
// version. It wraps sealed.ErrSkew, so the file is dropped, never
// quarantined: it is not damaged, just unreadable by this build.
var ErrVersion = fmt.Errorf("ledger: %w", sealed.ErrSkew)

// Record kinds. The enum is part of the on-disk contract: new kinds may
// be added, existing names never change.
const (
	// KindAccepted: the frontend accepted a job; Request, Total and the
	// idempotency Key are recorded. Written before the 202 is sent, so a
	// crash after this record never loses the job.
	KindAccepted = "accepted"
	// KindRecovered: a rebooted frontend found the job accepted-but-not-
	// done and re-dispatched it. One per recovery, so the count of these
	// records is the job's crash history (and seeds the stream event-id
	// epoch, keeping SSE ids monotonic across frontend generations).
	KindRecovered = "recovered"
	// KindHedge: a hedged dispatch resolved; Winner is the replica whose
	// answer was used, Loser the cancelled backup, CellKey the cell's
	// content address. The record is why a hedge can never double-count.
	KindHedge = "hedge"
	// KindDone: the job finished; Batch carries the full result matrix
	// (or Error the systemic failure), making completed jobs durable for
	// idempotent re-submission across frontend restarts.
	KindDone = "done"
)

// Record is one journal entry. Exactly one of the kind-specific payload
// groups is populated, per the Kind constants above.
type Record struct {
	// V is the record format version (always Version when written by
	// this build).
	V int `json:"v"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// JobID names the job this record belongs to.
	JobID string `json:"job_id,omitempty"`
	// Key is the client-supplied idempotency key, if any (accepted).
	Key string `json:"key,omitempty"`
	// Total is the job's cell count (accepted).
	Total int `json:"total,omitempty"`
	// Request is the accepted batch, verbatim — what recovery re-runs.
	Request *api.BatchRequest `json:"request,omitempty"`
	// Batch is the completed result matrix (done).
	Batch *api.BatchResponse `json:"batch,omitempty"`
	// Error is the job's systemic failure (done, failed jobs).
	Error string `json:"error,omitempty"`
	// CellKey, Winner, Loser describe a resolved hedge (hedge).
	CellKey string `json:"cell_key,omitempty"`
	Winner  string `json:"winner,omitempty"`
	Loser   string `json:"loser,omitempty"`
	// TraceID is the distributed-trace id active when the record was
	// written (accepted records; "" when tracing is off). Recovery links
	// its re-dispatch spans to this id, so a job's entire crash history —
	// original accept, every recovery generation — reads as one trace.
	// Additive and optional: records without it decode unchanged, so the
	// format version stays 1.
	TraceID string `json:"trace_id,omitempty"`
}

// Encode seals one record as its on-disk journal bytes: a single JSON
// line followed by the sha256 footer line. Appending Encode output to a
// journal file is the only write the ledger ever does.
func Encode(rec Record) ([]byte, error) {
	rec.V = Version
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("ledger: encode record: %w", err)
	}
	// json.Marshal escapes control characters, so the payload is a single
	// line and the record parses by newline structure alone.
	if bytes.IndexByte(payload, '\n') >= 0 {
		return nil, fmt.Errorf("ledger: encode record: payload contains newline")
	}
	return sealed.Seal(payload), nil
}

// DecodeJournal parses a journal file into its records. torn counts
// trailing records dropped as torn appends (0 or 1: a crash can tear at
// most the final record). A verification failure anywhere *before* the
// tail is corruption and returns an error wrapping sealed.ErrCorrupt
// (the caller quarantines the file); a record from another format version
// returns an error wrapping ErrVersion (the caller drops the file). The
// records decoded so far are returned alongside any error for forensics,
// but callers must not replay them.
func DecodeJournal(data []byte) (recs []Record, torn int, err error) {
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			// Payload line never got its newline: a torn final append.
			return recs, 1, nil
		}
		j := bytes.IndexByte(data[i+1:], '\n')
		if j < 0 {
			// Footer line truncated mid-digest: same torn shape.
			return recs, 1, nil
		}
		end := i + 1 + j + 1
		last := end == len(data)
		payload, uerr := sealed.Unseal(data[:end])
		if uerr != nil {
			if last {
				return recs, 1, nil
			}
			return recs, 0, fmt.Errorf("ledger: record %d: %w", len(recs), uerr)
		}
		var rec Record
		if jerr := json.Unmarshal(payload, &rec); jerr != nil {
			// The digest verified, so these bytes are what was written —
			// un-parseable JSON behind a valid seal is corruption at write
			// time (or a bug), not disk damage; quarantine either way.
			if last {
				return recs, 1, nil
			}
			return recs, 0, fmt.Errorf("ledger: record %d: %w: bad json: %v", len(recs), sealed.ErrCorrupt, jerr)
		}
		if rec.V != Version {
			return recs, 0, fmt.Errorf("%w: record %d has v%d, this build reads v%d", ErrVersion, len(recs), rec.V, Version)
		}
		recs = append(recs, rec)
		data = data[end:]
	}
	return recs, 0, nil
}

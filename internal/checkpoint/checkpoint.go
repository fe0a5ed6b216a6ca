// Package checkpoint persists simulation state durably: a versioned,
// integrity-sealed snapshot of one job (workload ref + technique + config +
// full cpu.Snapshot) that a restarted process can decode, validate against
// the job it is about to run, and resume bit-identically. The format is
// self-describing — a checkpoint file doubles as the job's journal entry:
// everything needed to rebuild the run (and to refuse a mismatched one) is
// in the file itself, so resuming never depends on in-memory state that
// died with the previous process.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"dvr/internal/cpu"
	"dvr/internal/sealed"
	"dvr/internal/workloads"
)

// FormatVersion is the checkpoint format this build writes and reads.
// Bump it whenever the State schema or any embedded snapshot schema
// changes shape; old files then decode to ErrVersion (dropped, recompute)
// instead of restoring garbage.
//
// v2: cpu.Snapshot.IQ is the ascending list of outstanding issue cycles
// (v1 stored a heap's raw layout), and the functional-unit calendars hold
// only the epochs a continuation can still book.
//
// v3: interp.PageDelta.Data holds packed (word index, value) records for
// the words that differ from the memory's base chain (v2 stored every
// owned page whole), and mem.CacheSnapshot.Ways is packed 21-byte records
// (v2 stored an array of objects).
//
// v4: the state that is already packed bytes (cache Ways, predictor
// Bimodal and Tables, the memory's PageDeltas) leaves the JSON for raw
// length-prefixed sections after it (sections.go). A v3 file, the same
// JSON with those fields inline as base64 and no sections, still loads.
const FormatVersion = 4

// inlineVersion is the oldest format Decode still reads: v3 holds every
// field in its JSON.
const inlineVersion = 3

// ErrVersion marks an intact checkpoint written by a different format
// version. Unlike corruption it is expected across upgrades: it wraps
// sealed.ErrSkew, so the file is dropped, not quarantined, and recomputed.
var ErrVersion = fmt.Errorf("checkpoint: %w", sealed.ErrSkew)

// ErrMismatch marks a checkpoint that decodes fine but belongs to a
// different job (other engine build, workload, technique, or config) than
// the one being resumed. Restoring it would be silently wrong; callers
// must recompute from scratch.
var ErrMismatch = errors.New("checkpoint: does not match this job")

// State is one durable checkpoint: the job identity and the complete
// simulation snapshot at a committed-instruction boundary.
type State struct {
	Version int `json:"version"`
	// Engine is the simulation-semantics version that produced the
	// snapshot (api.EngineVersion for dvrd); resuming under a different
	// engine is refused because the continued half would not match the
	// from-scratch result.
	Engine    string        `json:"engine"`
	Ref       workloads.Ref `json:"ref"`
	Technique string        `json:"technique"`
	Config    cpu.Config    `json:"config"`
	Core      cpu.Snapshot  `json:"core"`
}

// Seq returns the committed-instruction count the checkpoint resumes at.
func (st *State) Seq() uint64 { return st.Core.Seq }

// Encode serializes st (stamping FormatVersion) and seals it with the
// digest footer. The payload is the JSON of st with its packed fields
// emptied, a newline (compact JSON has none), then those fields as raw
// sections in the order walk visits them. The JSON keeps a null per
// predictor table, so Decode knows how many tables follow.
func Encode(st *State) ([]byte, error) {
	st.Version = FormatVersion
	head := *st
	core := &head.Core
	core.Hier.L1D.Ways, core.Hier.L2.Ways, core.Hier.L3.Ways = nil, nil, nil
	core.Bpred.Bimodal = nil
	if core.Bpred.Tables != nil {
		core.Bpred.Tables = make([][]byte, len(core.Bpred.Tables))
	}
	core.Frontend.Pages = nil
	js, err := json.Marshal(&head)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	size := sections{mode: measure}
	_ = walk(st, &size)
	out := sections{mode: write, buf: make([]byte, 0, len(js)+1+size.size)}
	out.buf = append(append(out.buf, js...), '\n')
	_ = walk(st, &out)
	return sealed.Seal(out.buf), nil
}

// Decode verifies and deserializes a checkpoint file. It returns
// sealed.ErrCorrupt-wrapped errors for integrity failures (quarantine the file)
// and ErrVersion-wrapped errors for format skew (drop the file); it never
// panics on hostile input.
func Decode(data []byte) (*State, error) {
	payload, err := sealed.Unseal(data)
	if err != nil {
		return nil, err
	}
	js, rest, split := bytes.Cut(payload, []byte{'\n'})
	var st State
	err = json.Unmarshal(js, &st)
	// Another version's fields need not fit this build's types (v2 wrote
	// cache ways as an array of objects); Unmarshal skips such a field and
	// still fills in the rest, so the version is judged first.
	var shape *json.UnmarshalTypeError
	if (err == nil || errors.As(err, &shape)) && st.Version != FormatVersion && st.Version != inlineVersion {
		return nil, fmt.Errorf("%w: file has %d, this build reads %d and %d", ErrVersion, st.Version, inlineVersion, FormatVersion)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", sealed.ErrCorrupt, err)
	}
	if st.Version == inlineVersion {
		if split {
			return nil, fmt.Errorf("%w: v%d file has %d bytes after its JSON", sealed.ErrCorrupt, inlineVersion, len(rest)+1)
		}
		return &st, nil
	}
	// The fields alias one copy of the sections, each capped at its length.
	in := sections{mode: read, buf: bytes.Clone(rest)}
	if err := walk(&st, &in); err != nil {
		return nil, fmt.Errorf("%w: %v", sealed.ErrCorrupt, err)
	}
	if len(in.buf) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the last of %d sections", sealed.ErrCorrupt, len(in.buf), in.n)
	}
	return &st, nil
}

// Matches reports whether the checkpoint belongs to the given job; a
// mismatch wraps ErrMismatch naming the differing field. Ref and Config
// are compared by canonical JSON (they are plain data; two configs that
// serialize identically simulate identically).
func (st *State) Matches(engine string, ref workloads.Ref, tech string, cfg cpu.Config) error {
	if st.Engine != engine {
		return fmt.Errorf("%w: engine %q, want %q", ErrMismatch, st.Engine, engine)
	}
	if st.Technique != tech {
		return fmt.Errorf("%w: technique %q, want %q", ErrMismatch, st.Technique, tech)
	}
	if !jsonEqual(st.Ref, ref) {
		return fmt.Errorf("%w: workload %s, want %s", ErrMismatch, st.Ref.SpecName(), ref.SpecName())
	}
	if !jsonEqual(st.Config, cfg) {
		return fmt.Errorf("%w: core config differs", ErrMismatch)
	}
	return nil
}

func jsonEqual(a, b any) bool {
	ab, errA := json.Marshal(a)
	bb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ab, bb)
}

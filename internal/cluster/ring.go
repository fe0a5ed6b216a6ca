// Package cluster is the membership layer of distributed dvrd: a
// consistent-hash ring that assigns content-addressed jobs to worker
// replicas, and a health prober that drives each replica's state
// (up / draining / dead) from jittered heartbeats plus data-path failure
// reports. The package is transport-agnostic — the frontend in
// internal/service wires the ring and prober to its HTTP clients — so the
// routing and failover state machines are testable without a network.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per replica. 64 points per
// replica keeps the key-space split within a few percent of even for the
// small fleets dvrd runs (2–16 workers) without making ring construction
// or lookup noticeable.
const DefaultVNodes = 64

// Ring is a consistent-hash ring over a fixed replica set. Keys are the
// service's SHA-256 cache keys (hex strings), which are already uniformly
// distributed, so the key-side hash is just the leading 64 bits; replica
// points are re-hashed per virtual node. The ring is immutable after New —
// membership changes (a replaced worker, a grown fleet) are a new Ring —
// which is what keeps ownership deterministic for a given configuration:
// the same key always prefers the same replica order, so cache hits and
// single-flight collapsing stay local to one worker.
type Ring struct {
	replicas []string
	points   []point // sorted by hash
}

type point struct {
	hash    uint64
	replica int // index into replicas
}

// New builds a ring over replicas with vnodes virtual nodes each
// (0 means DefaultVNodes). Replica names must be non-empty and unique;
// order does not matter (ownership depends only on the name set).
func New(replicas []string, vnodes int) (*Ring, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one replica")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(replicas))
	r := &Ring{replicas: append([]string(nil), replicas...)}
	for i, rep := range r.replicas {
		if rep == "" {
			return nil, fmt.Errorf("cluster: empty replica name")
		}
		if seen[rep] {
			return nil, fmt.Errorf("cluster: duplicate replica %q", rep)
		}
		seen[rep] = true
		for v := 0; v < vnodes; v++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", rep, v)))
			r.points = append(r.points, point{hash: binary.BigEndian.Uint64(sum[:8]), replica: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r, nil
}

// keyHash maps a job key onto the ring. Cache keys are hex SHA-256
// digests, already uniform — take the leading 64 bits directly; anything
// else (tests, foreign keys) is hashed first.
func keyHash(key string) uint64 {
	if len(key) >= 16 {
		if b, err := hex.DecodeString(key[:16]); err == nil {
			return binary.BigEndian.Uint64(b)
		}
	}
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Prefer returns every replica ordered by preference for key: the owner
// first (the first ring point at or after the key's hash), then each
// distinct successor walking the ring. The tail of the list is the
// failover order — when the owner is dead, the job's journal resumes on
// Prefer(key)[1], and every frontend computes the same list.
func (r *Ring) Prefer(key string) []string {
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.replicas))
	seen := make(map[int]bool, len(r.replicas))
	for n := 0; n < len(r.points) && len(out) < len(r.replicas); n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, r.replicas[p.replica])
		}
	}
	return out
}

// Owner returns Prefer(key)[0]: the replica that owns key while healthy.
func (r *Ring) Owner(key string) string { return r.Prefer(key)[0] }

package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
	"time"
)

func key(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("job-%d", i)))
	return hex.EncodeToString(sum[:])
}

func TestRingDeterministicAndComplete(t *testing.T) {
	reps := []string{"http://w1", "http://w2", "http://w3"}
	r1, err := New(reps, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same membership in a different order: identical ownership.
	r2, err := New([]string{"http://w3", "http://w1", "http://w2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		k := key(i)
		p1, p2 := r1.Prefer(k), r2.Prefer(k)
		if len(p1) != len(reps) {
			t.Fatalf("Prefer(%s) returned %d replicas, want %d", k, len(p1), len(reps))
		}
		seen := map[string]bool{}
		for _, rep := range p1 {
			seen[rep] = true
		}
		if len(seen) != len(reps) {
			t.Fatalf("Prefer(%s) not a permutation: %v", k, p1)
		}
		for j := range p1 {
			if p1[j] != p2[j] {
				t.Fatalf("ownership depends on declaration order: %v vs %v", p1, p2)
			}
		}
		if r1.Owner(k) != p1[0] {
			t.Fatalf("Owner != Prefer[0]")
		}
	}
}

func TestRingBalance(t *testing.T) {
	reps := []string{"a", "b", "c", "d"}
	r, err := New(reps, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[r.Owner(key(i))]++
	}
	for _, rep := range reps {
		share := float64(counts[rep]) / n
		if share < 0.10 || share > 0.45 {
			t.Errorf("replica %s owns %.1f%% of keys; want roughly even (counts %v)", rep, share*100, counts)
		}
	}
}

func TestRingFailoverOrderStable(t *testing.T) {
	// The successor (failover target) for a key must not depend on which
	// call computed it: two frontends agree where a dead owner's jobs go.
	r, _ := New([]string{"a", "b", "c"}, 0)
	for i := 0; i < 50; i++ {
		k := key(i)
		first := r.Prefer(k)
		for trial := 0; trial < 3; trial++ {
			if got := r.Prefer(k); fmt.Sprint(got) != fmt.Sprint(first) {
				t.Fatalf("Prefer(%s) unstable: %v vs %v", k, got, first)
			}
		}
	}
}

func TestRingRejectsBadMembership(t *testing.T) {
	if _, err := New(nil, 0); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := New([]string{"a", "a"}, 0); err == nil {
		t.Error("duplicate replica accepted")
	}
	if _, err := New([]string{"a", ""}, 0); err == nil {
		t.Error("empty replica name accepted")
	}
}

// scriptedProbe serves per-replica status sequences, then repeats the last.
type scriptedProbe struct {
	mu    chan struct{}
	seq   map[string][]Status
	calls map[string]int
}

func newScriptedProbe() *scriptedProbe {
	return &scriptedProbe{mu: make(chan struct{}, 1), seq: map[string][]Status{}, calls: map[string]int{}}
}

func (s *scriptedProbe) set(rep string, st ...Status) { s.seq[rep] = st }

func (s *scriptedProbe) probe(_ context.Context, rep string) Status {
	s.mu <- struct{}{}
	defer func() { <-s.mu }()
	seq := s.seq[rep]
	i := s.calls[rep]
	s.calls[rep]++
	if len(seq) == 0 {
		return Status{}
	}
	if i >= len(seq) {
		i = len(seq) - 1
	}
	return seq[i]
}

func waitState(t *testing.T, p *Prober, rep string, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.State(rep) == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replica %s never reached state %v (currently %v)", rep, want, p.State(rep))
}

func TestProberStateMachine(t *testing.T) {
	boom := errors.New("connection refused")
	sp := newScriptedProbe()
	// w1 healthy forever; w2 fails three times then recovers; w3 drains.
	sp.set("w1", Status{})
	sp.set("w2", Status{Err: boom}, Status{Err: boom}, Status{Err: boom}, Status{})
	sp.set("w3", Status{Draining: true})
	p := NewProber([]string{"w1", "w2", "w3"}, sp.probe, ProbeConfig{
		Interval: 5 * time.Millisecond, FailThreshold: 3, Seed: 7,
	})
	p.Start()
	defer p.Stop()

	waitState(t, p, "w2", StateDead)
	waitState(t, p, "w3", StateDraining)
	if p.State("w1") != StateUp {
		t.Errorf("w1 state = %v, want up", p.State("w1"))
	}
	// w2's script recovers after three failures: one success resurrects.
	waitState(t, p, "w2", StateUp)

	up, draining, dead := p.Counts()
	if up != 2 || draining != 1 || dead != 0 {
		t.Errorf("counts = (%d,%d,%d), want (2,1,0)", up, draining, dead)
	}
	snap := p.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d replicas, want 3", len(snap))
	}
	for _, r := range snap {
		if r.ProbesTotal == 0 {
			t.Errorf("replica %s: no probes recorded", r.Name)
		}
	}
}

func TestProberReportFailureKillsImmediately(t *testing.T) {
	sp := newScriptedProbe()
	sp.set("w1", Status{})
	p := NewProber([]string{"w1"}, sp.probe, ProbeConfig{Interval: time.Hour, FailThreshold: 3, Seed: 1})
	// Not started: only the data-path report drives state.
	if p.State("w1") != StateUp {
		t.Fatalf("initial state = %v, want up", p.State("w1"))
	}
	p.ReportFailure("w1", errors.New("dial tcp: connection refused"), "")
	if p.State("w1") != StateDead {
		t.Errorf("state after ReportFailure = %v, want dead (single decisive failure)", p.State("w1"))
	}
	// Unknown replicas are dead, never accidentally routable.
	if p.State("w9") != StateDead {
		t.Errorf("unknown replica state = %v, want dead", p.State("w9"))
	}
}

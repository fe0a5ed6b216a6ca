package cpu

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"dvr/internal/interp"
	"dvr/internal/isa"
	"dvr/internal/trace"
)

// cancelAtEngine cancels a context from inside the commit stream at an
// exact committed-instruction count, so the cancellation latency can be
// measured deterministically instead of racing a timer.
type cancelAtEngine struct {
	at      uint64
	commits uint64
	cancel  context.CancelFunc
}

func (e *cancelAtEngine) Name() string { return "cancel-at" }
func (e *cancelAtEngine) OnCommit(di *interp.DynInst, cycle uint64) {
	e.commits++
	if e.commits == e.at {
		e.cancel()
	}
}
func (e *cancelAtEngine) OnROBStall(from, to uint64) {}
func (e *cancelAtEngine) CommitBlockedUntil() uint64 { return 0 }
func (e *cancelAtEngine) Stats() EngineStats         { return EngineStats{} }
func (e *cancelAtEngine) SnapshotState() (json.RawMessage, error) {
	return json.Marshal(e.commits)
}
func (e *cancelAtEngine) RestoreState(raw json.RawMessage) error {
	return json.Unmarshal(raw, &e.commits)
}
func (e *cancelAtEngine) SetTracer(*trace.Recorder) {}

// TestCancellationLatency pins the documented cancellation bound of
// RunContext: once ctx is cancelled, the loop commits at most
// cancelCheckInterval further instructions before returning. This is the
// contract the dvrd service relies on to reclaim workers from abandoned
// requests promptly; cancelCheckInterval's doc comment points here.
func TestCancellationLatency(t *testing.T) {
	// Cancel at a count that is not a multiple of the poll interval, so
	// the test exercises the worst-case distance to the next poll.
	const cancelAt = 2_500
	p := buildLoop(func(b *isa.Builder) { b.AddI(3, 3, 1) }, 1_000_000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	core := NewCore(DefaultConfig(), interp.New(p, interp.NewMemory()))
	core.Attach(&cancelAtEngine{at: cancelAt, cancel: cancel})

	res, err := core.RunContext(ctx, 1_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if res.Instructions < cancelAt {
		t.Fatalf("run stopped at %d instructions, before the cancellation point %d", res.Instructions, cancelAt)
	}
	if latency := res.Instructions - cancelAt; latency > cancelCheckInterval {
		t.Errorf("cancellation latency = %d committed instructions, documented bound is %d",
			latency, cancelCheckInterval)
	}
}

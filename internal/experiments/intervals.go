package experiments

import (
	"fmt"
	"reflect"

	"dvr/internal/cpu"
	"dvr/internal/trace"
)

// CheckIntervals reports whether ivs, the interval series of a run traced
// from its first instruction, tiles the run that returned res: intervals
// are non-empty and contiguous, their instruction lengths sum to
// res.Instructions, the last ends on res.Cycles, and every trace.Counters
// field sums to the same field of res.TraceCounters(). MSHRBusyCycles
// only lower-bounds the run's: intervals count in-flight misses up to the
// last commit, the run end settles them to completion.
func CheckIntervals(res cpu.Result, ivs []trace.Interval) error {
	if len(ivs) == 0 {
		return fmt.Errorf("no intervals for %d instructions", res.Instructions)
	}
	var insts uint64
	for i, iv := range ivs {
		if iv.EndInst <= iv.StartInst || iv.EndCycle < iv.StartCycle {
			return fmt.Errorf("interval %d: bad bounds insts [%d,%d) cycles [%d,%d]", i, iv.StartInst, iv.EndInst, iv.StartCycle, iv.EndCycle)
		}
		if i > 0 && (iv.StartInst != ivs[i-1].EndInst || iv.StartCycle != ivs[i-1].EndCycle) {
			return fmt.Errorf("interval %d: not contiguous with interval %d", i, i-1)
		}
		insts += iv.EndInst - iv.StartInst
	}
	if last := ivs[len(ivs)-1].EndCycle; insts != res.Instructions || last != res.Cycles {
		return fmt.Errorf("insts=%d/%d cycles=%d/%d", insts, res.Instructions, last, res.Cycles)
	}
	// Every field, by reflection, so a counter added to trace.Counters is
	// checked without being listed here.
	want := reflect.ValueOf(res.TraceCounters())
	for f := 0; f < want.NumField(); f++ {
		var sum uint64
		for _, iv := range ivs {
			sum += reflect.ValueOf(iv.Delta).Field(f).Uint()
		}
		field, total := want.Type().Field(f), want.Field(f).Uint()
		if sum > total || (sum < total && field.Name != "MSHRBusyCycles") {
			return fmt.Errorf("%s: intervals sum to %d, run %d", field.Tag.Get("json"), sum, total)
		}
	}
	return nil
}

package cpu

import (
	"fmt"

	"dvr/internal/interp"
	"dvr/internal/mem"
)

// livelockPCWindow is how many trailing committed PCs the loop records for
// forensics dumps and checkpoints.
const livelockPCWindow = 32

// livelockHold is the commit hold RunOptions.LivelockAfter imposes: far
// beyond any reachable commit cycle, so the very next commit attempt
// exceeds any watchdog budget.
const livelockHold = uint64(1) << 62

// ForensicsDump is the machine-readable picture of a livelocked pipeline
// at the moment the retirement watchdog fired: where the stuck instruction
// is in the pipeline, what is occupying the backend structures, which
// misses are outstanding, and what committed recently. It is attached to
// the LivelockError and serialized beside the result by the service, so an
// engine bug becomes an actionable report instead of a hung worker.
type ForensicsDump struct {
	Seq        uint64 `json:"seq"` // dynamic number of the instruction that failed to commit
	PC         int    `json:"pc"`
	Op         string `json:"op"`
	Dispatch   uint64 `json:"dispatch"` // pipeline timestamps of the stuck instruction
	Ready      uint64 `json:"ready"`
	Issue      uint64 `json:"issue"`
	Done       uint64 `json:"done"`
	Commit     uint64 `json:"commit"`      // the commit cycle that exceeded the budget
	PrevCommit uint64 `json:"prev_commit"` // last successful commit cycle
	EngineHold uint64 `json:"engine_hold"` // engine's CommitBlockedUntil at the time, 0 if none

	ROBOccupancy int `json:"rob_occupancy"` // in-flight instructions at the stuck dispatch cycle
	IQOccupancy  int `json:"iq_occupancy"`
	LQOccupancy  int `json:"lq_occupancy"`
	SQOccupancy  int `json:"sq_occupancy"`

	LastPCs []int               `json:"last_pcs,omitempty"` // trailing committed PCs, oldest first
	MSHR    []mem.MSHRDumpEntry `json:"mshr,omitempty"`     // outstanding misses
}

// LivelockError reports that the retirement watchdog tripped: the gap
// between two consecutive commits exceeded the configured cycle budget.
// It carries the forensics dump describing the stuck pipeline.
type LivelockError struct {
	Budget uint64        `json:"budget"` // the configured watchdog budget, in cycles
	Dump   ForensicsDump `json:"dump"`
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf(
		"cpu: livelock: instruction %d (pc %d, %s) would commit at cycle %d, %d cycles after the previous commit (budget %d)",
		e.Dump.Seq, e.Dump.PC, e.Dump.Op, e.Dump.Commit, e.Dump.Commit-e.Dump.PrevCommit, e.Budget)
}

// ringOccupancy counts entries of a commit-cycle ring still outstanding at
// cycle `at`: instructions dispatched but with commit cycles in the future.
func ringOccupancy(ring []uint64, filled uint64, at uint64) int {
	n := uint64(len(ring))
	if filled < n {
		n = filled
	}
	occ := 0
	for _, cc := range ring[:n] {
		if cc > at {
			occ++
		}
	}
	return occ
}

// livelock assembles the typed livelock error for the stuck instruction.
func (c *Core) livelock(rs *runState, seq uint64, di interp.DynInst,
	disp, ready, issue, done, cc, hold, budget uint64) *LivelockError {
	return &LivelockError{
		Budget: budget,
		Dump: ForensicsDump{
			Seq:          seq,
			PC:           di.PC,
			Op:           di.Inst.Op.String(),
			Dispatch:     disp,
			Ready:        ready,
			Issue:        issue,
			Done:         done,
			Commit:       cc,
			PrevCommit:   rs.lastCommit,
			EngineHold:   hold,
			ROBOccupancy: ringOccupancy(rs.commitRing, seq, disp),
			IQOccupancy:  rs.iq.n,
			LQOccupancy:  ringOccupancy(rs.loadRing, rs.nLoads, disp),
			SQOccupancy:  ringOccupancy(rs.storeRing, rs.nStores, disp),
			LastPCs:      rs.lastPCs(seq),
			MSHR:         c.hier.MSHRDump(),
		},
	}
}

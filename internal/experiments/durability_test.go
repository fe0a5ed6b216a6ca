package experiments

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"dvr/internal/calendar"
	"dvr/internal/checkpoint"
	"dvr/internal/cpu"
	"dvr/internal/faults"
	"dvr/internal/interp"
	"dvr/internal/trace"
	"dvr/internal/workloads"
)

// errKilled simulates a process death at a checkpoint boundary: the
// checkpoint callback persists the snapshot and then the run is cut off.
var errKilled = errors.New("scripted kill")

// killResumeTechs is the bit-identity matrix of the durability contract:
// the six Figure 7 techniques — the no-engine baseline, PRE, IMP's pattern
// table, VR's delayed-termination hold path, DVR's full discovery/vectorize
// state, and the Oracle, whose look-ahead memory is a delta against the
// restored frontend's.
var killResumeTechs = []Technique{TechOoO, TechPRE, TechIMP, TechVR, TechDVR, TechOracle}

// TestKillResumeBitIdentity is the durability acceptance test: for every
// suite workload under every technique, a run that is killed at a
// randomized checkpoint boundary and resumed — through a full
// encode/decode of the checkpoint file format — produces a canonical
// Result bit-identical to a run that was never interrupted.
func TestKillResumeBitIdentity(t *testing.T) {
	specs := QuickSuite().All()
	if testing.Short() {
		specs = specs[:4]
	}
	cfg := cpu.DefaultConfig()
	for _, spec := range specs {
		for _, tech := range killResumeTechs {
			spec, tech := spec, tech
			t.Run(fmt.Sprintf("%s/%s", spec.Name, tech), func(t *testing.T) {
				t.Parallel()
				full, err := RunJob(context.Background(), spec, tech, cfg, JobOpts{})
				if err != nil {
					t.Fatalf("uninterrupted run: %v", err)
				}

				// Kill at a seeded-random checkpoint boundary, different
				// per cell but reproducible across runs.
				const every = 7_000
				roi := roiOf(spec)
				h := fnv.New64a()
				fmt.Fprintf(h, "%s/%s", spec.Name, tech)
				rng := rand.New(rand.NewSource(int64(h.Sum64())))
				kill := every * uint64(1+rng.Intn(int(roi/every)-1))

				var snap *cpu.Snapshot
				_, err = RunJob(context.Background(), spec, tech, cfg, JobOpts{
					CheckpointEvery: every,
					Checkpoint: func(s *cpu.Snapshot) error {
						if s.Seq == kill {
							snap = s
							return errKilled
						}
						return nil
					},
				})
				if !errors.Is(err, errKilled) {
					t.Fatalf("killed run returned %v, want scripted kill", err)
				}
				if snap == nil {
					t.Fatalf("no snapshot captured at seq %d", kill)
				}

				// Round-trip the snapshot through the durable file format,
				// so what resumes is exactly what a restarted process
				// would read off disk.
				data, err := checkpoint.Encode(&checkpoint.State{
					Engine:    "test-engine",
					Ref:       spec.Ref,
					Technique: string(tech),
					Config:    cfg,
					Core:      *snap,
				})
				if err != nil {
					t.Fatalf("encode checkpoint: %v", err)
				}
				st, err := checkpoint.Decode(data)
				if err != nil {
					t.Fatalf("decode checkpoint: %v", err)
				}
				if err := st.Matches("test-engine", spec.Ref, string(tech), cfg); err != nil {
					t.Fatalf("decoded checkpoint does not match job: %v", err)
				}

				resumed, err := RunJob(context.Background(), spec, tech, cfg, JobOpts{Resume: &st.Core})
				if err != nil {
					t.Fatalf("resumed run: %v", err)
				}
				if got, want := resumed.Canonical(), full.Canonical(); got != want {
					t.Errorf("resumed result differs from uninterrupted run (killed at %d/%d):\n got %+v\nwant %+v",
						kill, roi, got, want)
				}
			})
		}
	}
}

// TestSnapshotSeededTailBitIdentity pins the property the sampled
// replayer's warmup path relies on: a snapshot captured at an ARBITRARY
// commit boundary — not just a round checkpoint cadence — restored into a
// completely fresh core reproduces the tail of the uninterrupted run
// bit-identically. Boundaries include the first committed instruction and
// awkward primes that never align with any internal cadence.
func TestSnapshotSeededTailBitIdentity(t *testing.T) {
	spec := QuickSuite().GAP[0]
	cfg := cpu.DefaultConfig()
	for _, tech := range []Technique{TechOoO, TechDVR} {
		full, err := RunJob(context.Background(), spec, tech, cfg, JobOpts{})
		if err != nil {
			t.Fatalf("%s uninterrupted: %v", tech, err)
		}
		for _, boundary := range []uint64{1, 4_999, 13_337} {
			t.Run(fmt.Sprintf("%s/at-%d", tech, boundary), func(t *testing.T) {
				var snap *cpu.Snapshot
				_, err := RunJob(context.Background(), spec, tech, cfg, JobOpts{
					// CheckpointEvery == boundary makes the first checkpoint
					// land exactly on the arbitrary boundary; the scripted
					// kill stops the donor run there.
					CheckpointEvery: boundary,
					Checkpoint: func(s *cpu.Snapshot) error {
						if s.Seq == boundary {
							snap = s
							return errKilled
						}
						return nil
					},
				})
				if !errors.Is(err, errKilled) {
					t.Fatalf("donor run returned %v, want scripted kill", err)
				}
				if snap == nil || snap.Seq != boundary {
					t.Fatalf("no snapshot at boundary %d", boundary)
				}
				resumed, err := RunJob(context.Background(), spec, tech, cfg, JobOpts{Resume: snap})
				if err != nil {
					t.Fatalf("seeded run: %v", err)
				}
				if got, want := resumed.Canonical(), full.Canonical(); got != want {
					t.Errorf("tail from boundary %d diverges from uninterrupted run:\n got %+v\nwant %+v",
						boundary, got, want)
				}
			})
		}
	}
}

// TestResumeRejectsMismatchedCore verifies the restore path refuses a
// snapshot taken under a different configuration or technique instead of
// restoring garbage.
func TestResumeRejectsMismatchedCore(t *testing.T) {
	spec := QuickSuite().HPCDB[0]
	cfg := cpu.DefaultConfig()
	var snap *cpu.Snapshot
	_, err := RunJob(context.Background(), spec, TechDVR, cfg, JobOpts{
		CheckpointEvery: 5_000,
		Checkpoint: func(s *cpu.Snapshot) error {
			snap = s
			return errKilled
		},
	})
	if !errors.Is(err, errKilled) {
		t.Fatalf("killed run returned %v", err)
	}

	smaller := cfg
	smaller.ROBSize /= 2
	if _, err := RunJob(context.Background(), spec, TechDVR, smaller, JobOpts{Resume: snap}); !errors.Is(err, cpu.ErrSnapshotMismatch) {
		t.Errorf("resume under smaller ROB = %v, want ErrSnapshotMismatch", err)
	}
	if _, err := RunJob(context.Background(), spec, TechVR, cfg, JobOpts{Resume: snap}); !errors.Is(err, cpu.ErrSnapshotMismatch) {
		t.Errorf("resume under other technique = %v, want ErrSnapshotMismatch", err)
	}
	if _, err := RunJob(context.Background(), spec, TechOoO, cfg, JobOpts{Resume: snap}); !errors.Is(err, cpu.ErrSnapshotMismatch) {
		t.Errorf("resume without engine = %v, want ErrSnapshotMismatch", err)
	}

	// The issue queue's list is sized by its contents on restore, so a
	// crafted one is refused rather than allocated for.
	for name, iq := range map[string][]uint64{
		"unsorted":  {snap.FetchLim.Cycle + 9, snap.FetchLim.Cycle + 3},
		"far ahead": {snap.FetchLim.Cycle + 1, 1 << 62},
	} {
		bad := *snap
		bad.IQ = iq
		if _, err := RunJob(context.Background(), spec, TechDVR, cfg, JobOpts{Resume: &bad}); !errors.Is(err, cpu.ErrSnapshotMismatch) {
			t.Errorf("resume with %s issue queue = %v, want ErrSnapshotMismatch", name, err)
		}
	}

	// The packed word and way records come off disk as opaque bytes, so
	// restore is the only place a malformed one can be caught: each is a
	// mismatch, never a panic or a restore where the last record wins.
	le := binary.LittleEndian
	word := func(idx uint16, val uint64) []byte { return le.AppendUint64(le.AppendUint16(nil, idx), val) }
	way := func(w uint32, line uint64, flags byte) []byte {
		return append(le.AppendUint64(le.AppendUint64(le.AppendUint32(nil, w), line), 1), flags)
	}
	pages := func(ps ...interp.PageDelta) func(*cpu.Snapshot) {
		return func(s *cpu.Snapshot) { s.Frontend.Pages = ps }
	}
	ways := func(b []byte) func(*cpu.Snapshot) { return func(s *cpu.Snapshot) { s.Hier.L1D.Ways = b } }
	for name, mutate := range map[string]func(*cpu.Snapshot){
		"empty page":          pages(interp.PageDelta{PN: 1}),
		"ragged page":         pages(interp.PageDelta{PN: 1, Data: word(0, 1)[:7]}),
		"dense v2 page":       pages(interp.PageDelta{PN: 1, Data: make([]byte, 4096)}),
		"513 words":           pages(interp.PageDelta{PN: 1, Data: bytes.Repeat(word(0, 1), 513)}),
		"word index 512":      pages(interp.PageDelta{PN: 1, Data: word(512, 1)}),
		"duplicate page":      pages(interp.PageDelta{PN: 1, Data: word(0, 1)}, interp.PageDelta{PN: 1, Data: word(1, 1)}),
		"descending pages":    pages(interp.PageDelta{PN: 2, Data: word(0, 1)}, interp.PageDelta{PN: 1, Data: word(0, 1)}),
		"ragged ways":         ways(way(0, 0, 0)[:20]),
		"way out of range":    ways(way(1<<31, 0, 0)),
		"line in another set": ways(way(0, 1, 0)),
		"duplicate way":       ways(append(way(0, 0, 0), way(0, 0, 0)...)),
		"unknown fill source": ways(way(0, 0, 63<<2)),
	} {
		bad := *snap
		mutate(&bad)
		if _, err := RunJob(context.Background(), spec, TechDVR, cfg, JobOpts{Resume: &bad}); !errors.Is(err, cpu.ErrSnapshotMismatch) {
			t.Errorf("resume with %s = %v, want ErrSnapshotMismatch", name, err)
		}
	}
}

// TestWatchdogLivelock seeds a scripted livelock (the commit stream wedges
// after N instructions) and verifies the retirement watchdog converts it
// into a typed error with a populated forensics dump instead of a
// runaway simulation, and that a run resumed from a checkpoint taken
// before the wedge point wedges at the same instruction.
func TestWatchdogLivelock(t *testing.T) {
	spec := QuickSuite().HPCDB[0]
	cfg := cpu.DefaultConfig()
	fault := JobOpts{WatchdogBudget: 50_000, LivelockAfter: 2_000}
	for _, tech := range []Technique{TechOoO, TechDVR} {
		t.Run(string(tech), func(t *testing.T) {
			_, err := RunJob(context.Background(), spec, tech, cfg, fault)
			var le *cpu.LivelockError
			if !errors.As(err, &le) {
				t.Fatalf("livelocked run returned %v, want *cpu.LivelockError", err)
			}
			if le.Budget != 50_000 {
				t.Errorf("Budget = %d, want 50000", le.Budget)
			}
			d := le.Dump
			if d.Seq < 2_000 {
				t.Errorf("dump seq = %d, want >= livelock point 2000", d.Seq)
			}
			if d.Commit <= d.PrevCommit {
				t.Errorf("dump commit %d not after previous commit %d", d.Commit, d.PrevCommit)
			}
			if d.EngineHold == 0 {
				t.Error("dump engine hold = 0, want the wedged hold cycle")
			}
			if len(d.LastPCs) == 0 {
				t.Error("dump has no trailing PCs")
			}
			if le.Error() == "" {
				t.Error("empty error string")
			}

			early := fault
			early.CheckpointEvery = 1_000
			var snap *cpu.Snapshot
			early.Checkpoint = func(s *cpu.Snapshot) error {
				snap = s
				return errKilled
			}
			if _, err := RunJob(context.Background(), spec, tech, cfg, early); !errors.Is(err, errKilled) {
				t.Fatalf("donor run returned %v, want scripted kill", err)
			}
			resumed := fault
			resumed.Resume = snap
			_, err = RunJob(context.Background(), spec, tech, cfg, resumed)
			var rle *cpu.LivelockError
			if !errors.As(err, &rle) {
				t.Fatalf("run resumed at %d returned %v, want *cpu.LivelockError", snap.Seq, err)
			}
			if rle.Dump.Seq != d.Seq || rle.Dump.EngineHold == 0 {
				t.Errorf("run resumed at %d wedged at seq %d with hold %d, want seq %d with a hold",
					snap.Seq, rle.Dump.Seq, rle.Dump.EngineHold, d.Seq)
			}
		})
	}
}

// TestRunJobMatchesRunE pins RunJob's zero-options path to RunE: same
// canonical result, so the durable entry point cannot drift from the one
// the figures use.
func TestRunJobMatchesRunE(t *testing.T) {
	spec := QuickSuite().GAP[0]
	cfg := cpu.DefaultConfig()
	a, err := RunE(context.Background(), spec, TechDVR, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunJob(context.Background(), spec, TechDVR, cfg, JobOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Canonical() != b.Canonical() {
		t.Errorf("RunJob result differs from RunE:\n got %+v\nwant %+v", b.Canonical(), a.Canonical())
	}
}

// TestRunERejectsDegenerateConfig verifies wire-reachable construction
// panics are request errors now: a zero ROB or zero functional-unit count
// must come back as a validation error, not a crash.
func TestRunERejectsDegenerateConfig(t *testing.T) {
	spec := QuickSuite().GAP[0]
	bad := []func(*cpu.Config){
		func(c *cpu.Config) { c.ROBSize = 0 },
		func(c *cpu.Config) { c.IntALUs = 0 },
		func(c *cpu.Config) { c.LoadPorts = -1 },
		func(c *cpu.Config) { c.Width = 0 },
		func(c *cpu.Config) { c.Bpred.BimodalBits = -1 },
		func(c *cpu.Config) { c.Bpred.BimodalBits = 40 },
		func(c *cpu.Config) { c.Mem.L1D.Assoc = 0 },
		func(c *cpu.Config) { c.Mem.MSHRs = 0 },
		func(c *cpu.Config) { c.Mem.StrideStreams = 0 },
		// Sizes that allocate, far past their bounds: each must be refused
		// before anything is allocated for it.
		func(c *cpu.Config) { c.ROBSize = 1 << 40 },
		func(c *cpu.Config) { c.IQSize = 1 << 40 },
		func(c *cpu.Config) { c.LQSize = 1 << 40 },
		func(c *cpu.Config) { c.SQSize = 1 << 40 },
		func(c *cpu.Config) { c.Mem.L3.SizeBytes = 1 << 44 },
		func(c *cpu.Config) { c.Mem.L1D.Assoc = 1 << 40 },
		func(c *cpu.Config) { c.Mem.MSHRs = 1 << 40 },
		func(c *cpu.Config) { c.Mem.StrideStreams = 1 << 40 },
		func(c *cpu.Config) { c.Mem.StrideDegree = 1 << 40 },
		func(c *cpu.Config) { c.Bpred.TableBits, c.Bpred.HistLengths = 24, make([]int, 64) },
	}
	for i, mutate := range bad {
		cfg := cpu.DefaultConfig()
		mutate(&cfg)
		// Never run a config Validate lets through: an oversized one would
		// allocate what the bound exists to refuse.
		if cfg.Validate() == nil {
			t.Errorf("case %d: degenerate config passes Validate", i)
			continue
		}
		if _, err := RunE(context.Background(), spec, TechDVR, cfg); err == nil {
			t.Errorf("case %d: degenerate config accepted", i)
		}
	}
}

var _ = workloads.Ref{} // keep the import when build tags trim tests

// TestCheckpointStateBounded pins the two properties the release floor of
// the functional-unit and DRAM calendars exists for. A checkpoint's size
// must not grow with how long the run has been going: the FU calendars
// used to export one epoch per simulated cycle since instruction zero
// (1.9 MB of ALU bookings at 200k instructions, 7.8 MB at 800k), the DRAM
// calendar every epoch it had booked (1 682 at 200k, 6 591 at 800k); now
// they hold only the epochs a continuation can still book, a window's
// worth. And forgetting
// the past must not make a resumed run's state differ from a straight
// run's: from the same boundary on, both checkpoint deep-equal snapshots.
func TestCheckpointStateBounded(t *testing.T) {
	spec, err := workloads.Resolve(workloads.Ref{Kernel: "camel", ROI: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.DefaultConfig()
	const every = 200_000
	collect := func(resume *cpu.Snapshot) map[uint64]*cpu.Snapshot {
		snaps := make(map[uint64]*cpu.Snapshot)
		_, err := RunJob(context.Background(), spec, TechDVR, cfg, JobOpts{
			Resume:          resume,
			CheckpointEvery: every,
			Checkpoint:      func(s *cpu.Snapshot) error { snaps[s.Seq] = s; return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		return snaps
	}
	straight := collect(nil)
	if len(straight) != 4 {
		t.Fatalf("got %d checkpoints, want 4", len(straight))
	}

	// A pipelined pool books at most a few hundred cycles past dispatch,
	// and DRAM a few dozen epochs past it, so 2000 epochs across the
	// five pools and DRAM is generous; before their floors the pools
	// exported ~330 000 at the first checkpoint and ~1.3 M at the last.
	const maxEpochs = 2000
	for seq, s := range straight {
		n := 0
		for _, st := range []calendar.State{s.ALU, s.Mul, s.Div, s.LoadPorts, s.StorePorts, s.Hier.DRAM} {
			n += len(st.Epochs)
		}
		if n > maxEpochs {
			t.Errorf("checkpoint at %d exports %d functional-unit and DRAM epochs, want at most %d", seq, n, maxEpochs)
		}
		if !slices.IsSorted(s.IQ) || len(s.IQ) > cfg.IQSize {
			t.Errorf("checkpoint at %d: issue queue %v is not an ascending list of at most %d cycles", seq, s.IQ, cfg.IQSize)
		}
	}

	resumed := collect(straight[2*every])
	for _, seq := range []uint64{3 * every, 4 * every} {
		if !reflect.DeepEqual(resumed[seq], straight[seq]) {
			t.Errorf("checkpoint at %d differs between the straight run and the run resumed at %d", seq, 2*every)
		}
	}
}

// TestCheckpointSizeTracksChangedWords pins what the word-granular memory
// delta and the packed cache ways buy. The three kernels scatter a few
// thousand stores over thousands of pages, so a journal that stores owned
// pages whole is 10–40 MB at 100 000 instructions (the Oracle's look-ahead
// view repeating the frontend's pages in its own state) and a cold fleet
// cell spends a third of its time encoding it. The same run must also
// write the same bytes, or a checkpoint could not be verified by content.
// maxFile is the largest of these six files in format v4 (379 064 bytes:
// packed state as raw sections, no base64) plus about 20 %.
func TestCheckpointSizeTracksChangedWords(t *testing.T) {
	cfg := cpu.DefaultConfig()
	const maxFile, maxOracleState = 448 << 10, 8 << 10
	for _, kernel := range []string{"randomaccess", "camel", "nas-is"} {
		spec, err := workloads.Resolve(workloads.Ref{Kernel: kernel, ROI: 100_001})
		if err != nil {
			t.Fatal(err)
		}
		// Run on forks of one built image, as dvrd and the figure suites
		// do: the delta is taken against the image, which a resume rebuilds.
		spec = memoSpec(spec)
		for _, tech := range []Technique{TechOoO, TechOracle} {
			t.Run(fmt.Sprintf("%s/%s", kernel, tech), func(t *testing.T) {
				t.Parallel()
				encode := func() (file []byte, engineState int) {
					_, err := RunJob(context.Background(), spec, tech, cfg, JobOpts{
						CheckpointEvery: 100_000,
						Checkpoint: func(s *cpu.Snapshot) (err error) {
							if s.Engine != nil {
								engineState = len(s.Engine.State)
							}
							file, err = checkpoint.Encode(&checkpoint.State{
								Engine: "test-engine", Ref: spec.Ref, Technique: string(tech), Config: cfg, Core: *s,
							})
							return err
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					return file, engineState
				}
				file, engineState := encode()
				if len(file) == 0 || len(file) > maxFile {
					t.Errorf("checkpoint is %d bytes, want 1..%d", len(file), maxFile)
				}
				if tech == TechOracle && (engineState == 0 || engineState > maxOracleState) {
					t.Errorf("oracle engine state is %d bytes, want 1..%d", engineState, maxOracleState)
				}
				if again, _ := encode(); !bytes.Equal(file, again) {
					t.Error("two runs of one cell wrote different checkpoint bytes")
				}
			})
		}
	}
}

// TestJournalProtocol drives checkpoint.Journal, the protocol every durable
// front end runs a job under, through each of its verdicts: which attempts
// run from where, what the store counts, whether the journal survives, and
// that a run the protocol completes equals a fresh traced run, result,
// intervals and events alike.
func TestJournalProtocol(t *testing.T) {
	spec := QuickSuite().GAP[0]
	cfg := cpu.DefaultConfig()
	const key, engine, every = "cell", "test-engine", 10_000
	newRec := func() *trace.Recorder { return trace.New(trace.Config{IntervalEvery: 5_000, Events: 1 << 12}) }
	freshRec := newRec()
	fresh, err := Run(context.Background(), Job{Spec: spec, Tech: TechDVR, Cfg: cfg, JobOpts: JobOpts{Trace: freshRec}})
	if err != nil {
		t.Fatal(err)
	}
	// seed files tech's snapshot at commit `every` under key, its commit
	// ring cut to ring entries when ring > 0 (it then will not restore).
	seed := func(t *testing.T, store *checkpoint.Store, tech Technique, ring int) {
		var snap *cpu.Snapshot
		_, err := Run(context.Background(), Job{Spec: spec, Tech: tech, Cfg: cfg, JobOpts: JobOpts{CheckpointEvery: every,
			Checkpoint: func(s *cpu.Snapshot) error { snap = s; return errKilled }}})
		if !errors.Is(err, errKilled) {
			t.Fatalf("seeding run returned %v", err)
		}
		if ring > 0 {
			snap.CommitRing = snap.CommitRing[:ring]
		}
		st := &checkpoint.State{Engine: engine, Ref: spec.Ref, Technique: string(tech), Config: cfg, Core: *snap}
		if err := store.Save(key, st); err != nil {
			t.Fatal(err)
		}
	}
	isLivelock := func(err error) bool { var le *cpu.LivelockError; return errors.As(err, &le) }
	isCanceled := func(err error) bool { return errors.Is(err, context.Canceled) }
	for _, tc := range []struct {
		name       string
		seed       Technique // file this technique's journal first ("" = none)
		ring       int       // with its commit ring cut to this many entries
		failWrites bool
		opts       JobOpts // the fault and watchdog knobs
		cancel     bool    // cancel the run after its first save
		resumes    []bool  // per attempt: handed a resume point?
		resumed    uint64
		wantErr    func(error) bool // nil: the run completes
		kept       bool             // the journal survives the run
	}{
		{name: "no journal", resumes: []bool{false}},
		{name: "another technique's journal", seed: TechVR, resumes: []bool{false}},
		{name: "unrestorable journal", seed: TechDVR, ring: 1, resumes: []bool{true, false}, resumed: 1},
		{name: "livelock", opts: JobOpts{LivelockAfter: 25_000, WatchdogBudget: 50_000}, resumes: []bool{false}, wantErr: isLivelock},
		{name: "failing saves", failWrites: true, resumes: []bool{false}},
		{name: "cancelled", cancel: true, resumes: []bool{false}, wantErr: isCanceled, kept: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fsys faults.FS = faults.OS()
			if tc.failWrites {
				ffs := faults.NewFaultyFS(nil, 1)
				ffs.FailWriteEvery = 1
				fsys = ffs
			}
			store, err := checkpoint.NewStore(t.TempDir(), fsys)
			if err != nil {
				t.Fatal(err)
			}
			if tc.seed != "" {
				seed(t, store, tc.seed, tc.ring)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			job := Job{Spec: spec, Tech: TechDVR, Cfg: cfg, JobOpts: tc.opts}
			job.CheckpointEvery, job.Trace = every, newRec()
			var resumes []bool
			res, err := store.Journal(key, engine, spec.Ref, string(TechDVR), cfg).Run(
				func(resume *cpu.Snapshot, save func(*cpu.Snapshot) error) (cpu.Result, error) {
					resumes = append(resumes, resume != nil)
					if _, serr := os.Stat(store.Path(key)); resume == nil && serr == nil {
						t.Error("an attempt started fresh beside a stale journal")
					}
					job.Resume, job.Checkpoint = resume, save
					if tc.cancel {
						job.Checkpoint = func(s *cpu.Snapshot) error { err := save(s); cancel(); return err }
					}
					return Run(ctx, job)
				})
			if !slices.Equal(resumes, tc.resumes) {
				t.Errorf("attempts resumed %v, want %v", resumes, tc.resumes)
			}
			if got := store.Resumed(); got != tc.resumed {
				t.Errorf("Resumed() = %d, want %d", got, tc.resumed)
			}
			if tc.failWrites && (store.WriteErrors() == 0 || store.Written() != 0) {
				t.Errorf("failing saves: WriteErrors() = %d, Written() = %d", store.WriteErrors(), store.Written())
			} else if !tc.failWrites && store.Written() == 0 {
				t.Error("the run saved no checkpoint")
			}
			if _, serr := os.Stat(store.Path(key)); (serr == nil) != tc.kept {
				t.Errorf("journal present = %v, want %v", serr == nil, tc.kept)
			}
			if tc.wantErr != nil {
				if !tc.wantErr(err) {
					t.Errorf("run returned %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.Canonical(), fresh.Canonical(); got != want {
				t.Errorf("result differs from a fresh run:\n got %+v\nwant %+v", got, want)
			}
			if !reflect.DeepEqual(job.Trace.Intervals(), freshRec.Intervals()) || !reflect.DeepEqual(job.Trace.Events(), freshRec.Events()) {
				t.Error("trace differs from a fresh traced run's")
			}
		})
	}
}

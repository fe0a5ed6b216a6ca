package bpred

import (
	"testing"
	"time"
)

func train(p *Predictor, pc uint64, outcomes []bool) (mispredicts int) {
	for _, taken := range outcomes {
		if p.Update(pc, taken) {
			mispredicts++
		}
	}
	return mispredicts
}

func TestLearnsAlwaysTaken(t *testing.T) {
	p := New(DefaultConfig())
	outcomes := make([]bool, 1000)
	for i := range outcomes {
		outcomes[i] = true
	}
	m := train(p, 0x40, outcomes)
	if m > 5 {
		t.Errorf("always-taken mispredicts = %d, want <= 5", m)
	}
}

func TestLearnsBias(t *testing.T) {
	p := New(DefaultConfig())
	// 7-in-8 taken; a bimodal-class predictor should stay near the bias.
	var m int
	for i := 0; i < 4000; i++ {
		taken := i%8 != 3
		if p.Update(0x80, taken) {
			m++
		}
	}
	if rate := float64(m) / 4000; rate > 0.30 {
		t.Errorf("biased-branch mispredict rate = %.2f, want <= 0.30", rate)
	}
}

func TestLearnsLoopPattern(t *testing.T) {
	p := New(DefaultConfig())
	// A loop of 7 taken then 1 not-taken: TAGE's history tables should
	// learn the exit after warmup.
	var late int
	for i := 0; i < 8000; i++ {
		taken := i%8 != 7
		mis := p.Update(0x100, taken)
		if i > 4000 && mis {
			late++
		}
	}
	if rate := float64(late) / 4000; rate > 0.05 {
		t.Errorf("loop-pattern steady-state mispredict rate = %.2f, want <= 0.05", rate)
	}
}

func TestLearnsAlternating(t *testing.T) {
	p := New(DefaultConfig())
	var late int
	for i := 0; i < 4000; i++ {
		mis := p.Update(0x140, i%2 == 0)
		if i > 2000 && mis {
			late++
		}
	}
	if rate := float64(late) / 2000; rate > 0.05 {
		t.Errorf("alternating steady-state mispredict rate = %.2f", rate)
	}
}

func TestRandomBranchNearHalf(t *testing.T) {
	p := New(DefaultConfig())
	s := uint64(12345)
	var m int
	const n = 8000
	for i := 0; i < n; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		if p.Update(0x200, s&1 == 0) {
			m++
		}
	}
	rate := float64(m) / n
	if rate < 0.35 || rate > 0.65 {
		t.Errorf("random-branch mispredict rate = %.2f, want ~0.5", rate)
	}
}

func TestHistoryCorrelation(t *testing.T) {
	p := New(DefaultConfig())
	// Branch B's outcome equals branch A's previous outcome: only a
	// history-indexed predictor can get B right.
	s := uint64(99)
	var lateMis int
	for i := 0; i < 6000; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		a := s&1 == 0
		p.Update(0x300, a)
		mis := p.Update(0x304, a) // perfectly correlated with the previous outcome
		if i > 3000 && mis {
			lateMis++
		}
	}
	if rate := float64(lateMis) / 3000; rate > 0.15 {
		t.Errorf("correlated-branch mispredict rate = %.2f, want <= 0.15", rate)
	}
}

func TestTwoBranchesDoNotDestroyEachOther(t *testing.T) {
	p := New(DefaultConfig())
	var m int
	for i := 0; i < 4000; i++ {
		if p.Update(0x400, true) {
			m++
		}
		if p.Update(0x404, false) {
			m++
		}
	}
	if m > 50 {
		t.Errorf("two static opposite branches mispredict %d times", m)
	}
}

func TestMispredictRateCounter(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 100; i++ {
		p.Update(0x500, true)
	}
	if p.Lookups != 100 {
		t.Errorf("lookups = %d, want 100", p.Lookups)
	}
	if p.MispredictRate() > 0.2 {
		t.Errorf("rate = %.2f", p.MispredictRate())
	}
}

func TestPredictDoesNotTrain(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 50; i++ {
		p.Predict(0x600)
	}
	// No Update calls: mispredicts must be zero and state untrained.
	if p.Mispredicts != 0 {
		t.Errorf("Predict trained the tables")
	}
}

func TestZeroValueConfigSafe(t *testing.T) {
	p := New(Config{BimodalBits: 4, TableBits: 4, TagBits: 5, HistLengths: []int{2, 4}, UsefulReset: 16})
	for i := 0; i < 1000; i++ {
		p.Update(uint64(i%7)*4, i%3 == 0)
	}
	// Just must not panic and keep counters coherent.
	if p.Lookups != 1000 {
		t.Errorf("lookups = %d", p.Lookups)
	}
}

// The incremental fold (push) must stay
// bit-identical to folding the raw history from scratch after every
// single-bit ghist advance — the path every Update and Warm takes — under
// the default geometry and under degenerate ones (zero-width index or tag
// folds, zero-length histories, lengths past 64 bits).
func TestIncrementalFoldMatchesScratch(t *testing.T) {
	for _, cfg := range append([]Config{DefaultConfig()}, edgeConfigs()...) {
		p := New(cfg)
		rng := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 4096; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			p.Update(rng>>33, rng&1 == 0)
			for tbl, l := range cfg.HistLengths {
				f := p.folds[p.tab[tbl].fold]
				if want := p.foldHistory(l, cfg.TableBits); f.idx != want {
					t.Fatalf("%+v step %d table %d: incremental index fold %#x, scratch %#x", cfg, i, tbl, f.idx, want)
				}
				if want := p.foldHistory(l, cfg.TagBits-1); f.tag != want {
					t.Fatalf("%+v step %d table %d: incremental tag fold %#x, scratch %#x", cfg, i, tbl, f.tag, want)
				}
			}
		}
	}
}

// edgeConfigs are valid configurations at the edges of what Validate
// admits: one-bit tags and zero-bit tables make a fold zero bits wide.
func edgeConfigs() []Config {
	return []Config{
		{BimodalBits: 4, TableBits: 0, TagBits: 9, HistLengths: []int{4, 8, 64, 128}, UsefulReset: 64},
		{BimodalBits: 4, TableBits: 6, TagBits: 1, HistLengths: []int{0, 3, 70}, UsefulReset: 64},
		{BimodalBits: 0, TableBits: 3, TagBits: 16, HistLengths: []int{1, 1, 5, 200}, UsefulReset: 8},
		{BimodalBits: 2, TableBits: 2, TagBits: 2, HistLengths: nil, UsefulReset: 1},
	}
}

// An arbitrary ghist jump (what Restore does) must recompute the folds,
// not keep the ones of the history before it.
func TestFoldRecomputeAfterHistoryJump(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 100; i++ {
		p.Update(uint64(i)*31, i%3 == 0)
	}
	s := p.Snapshot()
	s.GHist = 0xdeadbeefcafef00d
	if err := p.Restore(s); err != nil {
		t.Fatal(err)
	}
	for tbl, l := range p.cfg.HistLengths {
		if want, got := p.foldHistory(l, p.cfg.TableBits), p.folds[p.tab[tbl].fold].idx; got != want {
			t.Fatalf("table %d: fold stale after history jump: %#x, want %#x", tbl, got, want)
		}
	}
}

// A zero-width fold (tag_bits 1 or table_bits 0, both valid) once made the
// from-scratch fold loop forever, and Restore always takes that path with a
// nonzero history. Update after Restore must return.
func TestRestoreWithZeroWidthFoldReturns(t *testing.T) {
	for _, cfg := range []Config{
		{BimodalBits: 4, TableBits: 4, TagBits: 1, HistLengths: []int{4, 8}, UsefulReset: 16},
		{BimodalBits: 4, TableBits: 0, TagBits: 9, HistLengths: []int{4, 8}, UsefulReset: 16},
	} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		src := New(cfg)
		for i := 0; i < 64; i++ {
			src.Update(uint64(i)*4, i%3 != 0)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			p := New(cfg)
			if err := p.Restore(src.Snapshot()); err != nil {
				t.Error(err)
				return
			}
			p.Update(0x40, true)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%+v: Update after Restore did not return", cfg)
		}
	}
}

// Warm trains exactly like Update but leaves the accuracy counters alone:
// functional warming must shape predictor state without polluting the
// timed segment's statistics.
func TestWarmTrainsWithoutCounting(t *testing.T) {
	a, b := New(DefaultConfig()), New(DefaultConfig())
	pattern := func(i int) (uint64, bool) { return uint64(i%7) * 64, i%5 != 0 }
	for i := 0; i < 2000; i++ {
		pc, taken := pattern(i)
		a.Update(pc, taken)
		b.Warm(pc, taken)
	}
	if b.Lookups != 0 || b.Mispredicts != 0 {
		t.Errorf("Warm counted: %d lookups, %d mispredicts", b.Lookups, b.Mispredicts)
	}
	// Same trained state: identical predictions on the pattern's future.
	for i := 2000; i < 2200; i++ {
		pc, _ := pattern(i)
		if a.Predict(pc) != b.Predict(pc) {
			t.Fatalf("step %d: warmed predictor diverges from updated one", i)
		}
		_, taken := pattern(i)
		a.Update(pc, taken)
		b.Update(pc, taken)
	}
}

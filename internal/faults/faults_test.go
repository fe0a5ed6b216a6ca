package faults

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// get sends one GET through rt and returns the body it managed to read.
func get(t *testing.T, ctx context.Context, rt http.RoundTripper, url string) (string, error) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// hostOf strips the scheme from an httptest URL: the Host NetFaults keys on.
func hostOf(url string) string { return strings.TrimPrefix(url, "http://") }

func newServer(t *testing.T, body string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestPartitionRefusesOnlyTheNamedHost(t *testing.T) {
	a, b := newServer(t, "a"), newServer(t, "b")
	nf := &NetFaults{}
	rt := nf.Transport(nil)
	ctx := context.Background()

	nf.Partition(hostOf(a.URL))
	if _, err := get(t, ctx, rt, a.URL); !errors.Is(err, ErrInjected) {
		t.Fatalf("partitioned host answered: err = %v, want ErrInjected", err)
	}
	if got, err := get(t, ctx, rt, b.URL); err != nil || got != "b" {
		t.Fatalf("other host = %q, %v; want it untouched", got, err)
	}
	if refused, _, _ := nf.Counters(); refused != 1 {
		t.Errorf("refused = %d, want the one partitioned request", refused)
	}

	nf.Heal(hostOf(a.URL))
	if got, err := get(t, ctx, rt, a.URL); err != nil || got != "a" {
		t.Fatalf("healed host = %q, %v; want it back", got, err)
	}
}

// TestScheduleDrivesCounters: the periodic schedule counts requests, so a
// fixed request order fires the same faults. With refuse every 2nd, reset
// every 3rd (refusal wins a tie) and latency every 5th, six requests are
// refused at 2, 4 and 6, reset at 3 and delayed at 5.
func TestScheduleDrivesCounters(t *testing.T) {
	ts := newServer(t, "a body longer than the reset budget")
	nf := &NetFaults{}
	rt := nf.Transport(nil)
	nf.Schedule(2, 3, 4, 5, time.Millisecond)
	var outcomes []string
	for i := 1; i <= 6; i++ {
		body, err := get(t, context.Background(), rt, ts.URL)
		switch {
		case errors.Is(err, ErrInjected):
			outcomes = append(outcomes, "refused")
		case errors.Is(err, io.ErrUnexpectedEOF):
			if body != "a bo" {
				t.Errorf("request %d: reset after %q, want the 4-byte budget", i, body)
			}
			outcomes = append(outcomes, "reset")
		case err != nil:
			t.Fatalf("request %d: %v", i, err)
		default:
			outcomes = append(outcomes, "ok")
		}
	}
	if got, want := strings.Join(outcomes, " "), "ok refused reset refused ok refused"; got != want {
		t.Errorf("outcomes = %s, want %s", got, want)
	}
	refused, resets, delayed := nf.Counters()
	if refused != 3 || resets != 1 || delayed != 1 {
		t.Errorf("counters = refused %d, resets %d, delayed %d; want 3, 1, 1", refused, resets, delayed)
	}
}

func TestResetBodyCutsAfterBudget(t *testing.T) {
	for _, tc := range []struct {
		body   string
		budget int
		want   string
	}{
		{"hello world", 5, "hello"},
		{"hello world", 0, ""},
		// A body shorter than the budget still ends in a reset, not a clean
		// EOF, or the scheduled fault would be silently inert.
		{"hi", 5, "hi"},
	} {
		b := &resetBody{inner: io.NopCloser(strings.NewReader(tc.body)), remain: tc.budget}
		got, err := io.ReadAll(b)
		if string(got) != tc.want || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("body %q, budget %d: read %q, %v; want %q, ErrUnexpectedEOF", tc.body, tc.budget, got, err, tc.want)
		}
	}
}

func TestStallDelaysThenReleases(t *testing.T) {
	ts := newServer(t, "ok")
	nf := &NetFaults{}
	rt := nf.Transport(nil)
	host := hostOf(ts.URL)

	const stall = 30 * time.Millisecond
	nf.Stall(host, stall)
	start := time.Now()
	if _, err := get(t, context.Background(), rt, ts.URL); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < stall {
		t.Errorf("stalled request took %v, want at least %v", elapsed, stall)
	}

	// A long stall gives way to the request's own deadline: the hedge
	// winner cancelling its loser relies on that.
	nf.Stall(host, time.Hour)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := get(t, ctx, rt, ts.URL); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled request under a deadline: err = %v, want DeadlineExceeded", err)
	}

	nf.Unstall(host)
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if got, err := get(t, ctx, rt, ts.URL); err != nil || got != "ok" {
		t.Fatalf("unstalled request = %q, %v", got, err)
	}
}

// TestFaultyFSReplaysBySeed: two FaultyFS over the same inner filesystem
// schedule and the same seed fail and corrupt the same writes, byte for
// byte — what lets a chaos run be re-investigated. A failed write leaves
// no file, and a landed one is private to its owner (mode 0600).
func TestFaultyFSReplaysBySeed(t *testing.T) {
	run := func() (failed []int, files map[string]string) {
		dir := t.TempDir()
		fsys := NewFaultyFS(nil, 42)
		fsys.FailWriteEvery = 3
		fsys.CorruptWriteEvery = 2
		for i := 1; i <= 12; i++ {
			name, err := fsys.WriteTemp(dir, fmt.Sprint(i)+".*.tmp", []byte("payload-payload"))
			if err != nil {
				if !errors.Is(err, ErrInjected) || name != "" {
					t.Fatal(name, err)
				}
				failed = append(failed, i)
				continue
			}
			if fi, err := os.Stat(name); err != nil || fi.Mode().Perm() != 0o600 {
				t.Fatalf("write %d landed as %v, %v; want mode 0600", i, fi, err)
			}
		}
		wf, wc, _ := fsys.Counters()
		if wf != len(failed) || wc == 0 {
			t.Fatalf("counters: %d failed (saw %d), %d corrupted", wf, len(failed), wc)
		}
		files = map[string]string{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			i, _, _ := strings.Cut(e.Name(), ".")
			files[i] = string(data)
		}
		if len(files)+len(failed) != 12 {
			t.Fatalf("%d files for %d landed writes", len(files), 12-len(failed))
		}
		return failed, files
	}
	failedA, filesA := run()
	failedB, filesB := run()
	if fmt.Sprint(failedA) != "[3 6 9 12]" {
		t.Errorf("failed writes = %v, want every third", failedA)
	}
	if fmt.Sprint(failedA) != fmt.Sprint(failedB) || fmt.Sprint(filesA) != fmt.Sprint(filesB) {
		t.Errorf("same seed, different faults:\n%v %v\n%v %v", failedA, filesA, failedB, filesB)
	}
	if filesA["2"] == "payload-payload" || filesA["1"] != "payload-payload" {
		t.Errorf("write 2 should land corrupted and write 1 intact: %q, %q", filesA["2"], filesA["1"])
	}
}

func TestCrashPlanFiresOnce(t *testing.T) {
	plan := &CrashPlan{}
	in := &Injector{Crash: plan}
	const pt = FrontendCrashAfterLedgerWrite
	plan.Arm(pt, 2)
	var hits []bool
	for i := 0; i < 4; i++ {
		hits = append(hits, in.CrashAt(pt))
	}
	if fmt.Sprint(hits) != "[false true false false]" {
		t.Errorf("hits = %v, want only the second to fire", hits)
	}
	if n := plan.Fired(pt); n != 1 {
		t.Errorf("Fired = %d, want 1", n)
	}
	if in.CrashAt(FrontendCrashBeforeLedgerWrite) || plan.Fired(FrontendCrashBeforeLedgerWrite) != 0 {
		t.Error("an unarmed point fired")
	}
	plan.Arm(pt, 0) // n < 1 means the next hit
	if !in.CrashAt(pt) || plan.Fired(pt) != 2 {
		t.Errorf("Arm(pt, 0) did not fire on the next hit (fired %d)", plan.Fired(pt))
	}
}

// TestNilInjectorIsNoFaults: the production default is a nil *Injector,
// and every accessor must behave as "no faults" on it (and on a zero one).
func TestNilInjectorIsNoFaults(t *testing.T) {
	inner := http.DefaultTransport
	custom := &NetFaults{}
	for name, in := range map[string]*Injector{"nil": nil, "zero": {}} {
		if _, ok := in.Filesystem().(osFS); !ok {
			t.Errorf("%s: Filesystem() = %T, want the OS", name, in.Filesystem())
		}
		in.Sim("key") // must not panic
		if n := in.LivelockAfter("key"); n != 0 {
			t.Errorf("%s: LivelockAfter = %d, want 0", name, n)
		}
		if in.CrashAt(FrontendCrashBeforeLedgerWrite) {
			t.Errorf("%s: CrashAt fired", name)
		}
		if rt := in.Transport(nil); rt != inner {
			t.Errorf("%s: Transport(nil) = %T, want http.DefaultTransport", name, rt)
		}
		if rt := in.Transport(custom); rt != custom {
			t.Errorf("%s: Transport(rt) did not return rt untouched", name)
		}
	}
}

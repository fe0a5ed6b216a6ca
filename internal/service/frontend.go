package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dvr/internal/cluster"
	"dvr/internal/ledger"
	"dvr/internal/obs"
	"dvr/internal/service/api"
	"dvr/internal/service/client"
)

// The cluster frontend: a stateless router that terminates client
// connections and spreads jobs over a fleet of worker replicas. Routing is
// by the job's content address over a consistent-hash ring
// (internal/cluster) with bounded loads (bounded.go), so a cell lands on
// its owner unless the owner already holds more than its share of the cells
// in flight — cache hits and single-flight collapsing stay local to one
// replica — and the ring's successor order doubles as the failover order:
// when a worker dies mid-batch, its unfinished cells re-route to the next
// live replica, whose runCell resumes the dead worker's journaled
// checkpoint from the shared durable directory (DESIGN.md, "Cluster
// architecture"). The frontend holds no simulation state of its own;
// everything it serves is reconstructed from worker responses, which is
// what makes a frontend restart free.

// errNoReplica is the routing dead end: every candidate replica for a key
// was tried and failed at the transport level. It maps to 503 +
// Retry-After — a fleet-wide outage is transient from the client's view
// (workers restart, partitions heal), so the retrying client keeps its
// budget working.
var errNoReplica = errors.New("service: no live replica")

// FrontendConfig sizes the frontend.
type FrontendConfig struct {
	Common
	// Replicas are the worker base URLs (e.g. "http://10.0.0.2:8377").
	// Required, at least one. The set is fixed for the frontend's lifetime;
	// membership changes are a restart (the ring is deterministic in the
	// set, so every frontend replica agrees on ownership).
	Replicas []string
	// ProbeInterval is the per-replica heartbeat period; 0 means 1s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one readiness probe; 0 means half the interval.
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive probe failures mark a replica
	// dead; 0 means 3.
	FailThreshold int
	// Seed seeds the probe jitter; 0 means 1.
	Seed uint64
	// RetryPolicy shapes the per-replica transport retry loop; nil means
	// client.DefaultRetryPolicy(). The budget is per attempt against one
	// replica — failover to the next candidate starts after it is spent.
	RetryPolicy *client.RetryPolicy
	// LedgerDir, when set, makes accepted async jobs durable: each gets an
	// append-only sealed journal under this directory, and a restarted
	// frontend replays the directory to recover every accepted-but-
	// unfinished job (and to keep answering idempotent re-submissions of
	// finished ones). Empty disables the ledger — the frontend is then
	// stateless and a restart forgets in-flight jobs, the pre-ledger
	// behavior.
	LedgerDir string
	// HedgeAfter, when positive, launches a backup dispatch for a sim cell
	// that has not answered within this duration — the straggler hedge.
	// The first decisive answer wins and the loser is cancelled; worker-
	// side content addressing keeps the twin from ever double-counting.
	// 0 disables hedging.
	HedgeAfter time.Duration
}

// Frontend is the cluster router. Its core serves the HTTP routes; the
// frontend answers cells by routing them to its workers. Construct with
// NewFrontend, mount Handler, and call Shutdown to drain.
type Frontend struct {
	core
	cfg     FrontendConfig
	ring    *cluster.Ring
	prober  *cluster.Prober
	clients map[string]*client.Client
	flight  *flightGroup[api.SimResponse]
	load    *inflight

	// ledgerHealth is the boot-time scan verdict of the ledger.
	ledgerHealth ledger.Health

	// dispatchHist is the per-outcome latency of one frontend→worker
	// dispatch attempt (dvrd_dispatch_attempt_seconds).
	dispatchHist map[string]*histogram

	routed            atomic.Uint64 // cells routed to a replica and answered
	failovers         atomic.Uint64 // cells re-routed off a failed replica
	failoverExhausted atomic.Uint64 // cells that ran out of candidates
	recovered         atomic.Uint64 // jobs replayed from the ledger at boot
	hedgesLaunched    atomic.Uint64 // backup dispatches actually sent
	hedgesWon         atomic.Uint64 // hedges where the backup answered first
}

// NewFrontend builds a frontend over the configured replica fleet and
// starts its health prober.
func NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	ring, err := cluster.New(cfg.Replicas, 0)
	if err != nil {
		return nil, err
	}
	f := &Frontend{
		cfg:     cfg,
		ring:    ring,
		clients: make(map[string]*client.Client, len(cfg.Replicas)),
		flight:  newFlightGroup[api.SimResponse](),
		load:    newInflight(),
	}
	f.core.init(f, "frontend", frontendExposition, cfg.Common, cfg.LedgerDir)
	f.dispatchHist = make(map[string]*histogram, len(dispatchOutcomes))
	for _, o := range dispatchOutcomes {
		f.dispatchHist[o] = f.histogram(fmt.Sprintf("dvrd_dispatch_attempt_seconds{outcome=%q}", o))
	}
	// One transport (and fault schedule) shared by every replica client:
	// a partition of one host must not disturb the others' connections,
	// which per-host http.Client state would make hard to reason about.
	httpc := &http.Client{Transport: cfg.Faults.Transport(nil)}
	policy := client.DefaultRetryPolicy()
	if cfg.RetryPolicy != nil {
		policy = *cfg.RetryPolicy
	}
	for _, rep := range cfg.Replicas {
		f.clients[rep] = client.New(rep, client.WithHTTPClient(httpc), client.WithRetryPolicy(policy))
	}
	f.prober = cluster.NewProber(cfg.Replicas, f.probe, cluster.ProbeConfig{
		Interval:      cfg.ProbeInterval,
		Timeout:       cfg.ProbeTimeout,
		FailThreshold: cfg.FailThreshold,
		Seed:          cfg.Seed,
	})
	if cfg.LedgerDir != "" {
		// An unopenable ledger is a hard startup error: the operator asked
		// for durability, so running without it would silently break the
		// exactly-once contract.
		led, err := ledger.NewStore(cfg.LedgerDir, cfg.Faults.Filesystem())
		if err != nil {
			return nil, err
		}
		f.ledger = led
		f.ledgerHealth = led.Scan()
	}
	f.prober.Start()
	f.recoverLedger()
	return f, nil
}

// recoverLedger replays the boot-time scan. Completed jobs re-register
// finished under their original ids — the durable dedup window, so a
// client retrying an idempotency key after the crash gets the original
// results. Pending jobs re-attach their event stream under a fresh
// event-id epoch and re-dispatch over the ring; worker-side exactly-once
// (content-addressed cache + single-flight) turns the re-dispatch into
// re-attachment — cells the fleet already finished come back as cache
// hits, cells still running collapse onto the running flight, and only
// truly lost work executes again.
func (f *Frontend) recoverLedger() {
	for _, lj := range f.ledgerHealth.Completed {
		j := f.jobs.restore(lj.ID, lj.Accepted.Total, lj.Accepted.Key, nil)
		var err error
		if lj.Done.Error != "" {
			err = errors.New(lj.Done.Error)
		}
		j.finish(lj.Done.Batch, err)
	}
	for _, lj := range f.ledgerHealth.Pending {
		// Event-id epoch: (recoveries+1)<<32 keeps recovered stream ids
		// strictly above anything a previous incarnation served, so a
		// subscriber's Last-Event-ID resume stays monotonic across the
		// crash instead of replaying ids it has already seen.
		epoch := (uint64(lj.Recoveries) + 1) << 32
		bc := f.streams.CreateAt(lj.ID, epoch)
		j := f.jobs.restore(lj.ID, lj.Accepted.Total, lj.Accepted.Key, bc)
		var (
			cells []cell
			sc    simConfig
		)
		err := errors.New("service: recovered job has no request payload")
		if req := lj.Accepted.Request; req != nil {
			if err = req.Validate(); err == nil {
				cells, sc, err = resolveBatch(*req)
			}
		}
		if err != nil {
			// A journal that cannot be re-run (its accepted record lost its
			// payload, asks for what this build refuses, such as sampling, or
			// names a cell this build cannot resolve) settles as failed
			// rather than recover a ghost.
			f.settle(j, nil, err)
			continue
		}
		if err := f.ledger.Append(lj.ID, ledger.Record{Kind: ledger.KindRecovered, JobID: lj.ID, TraceID: lj.Accepted.TraceID}); err != nil {
			f.logger.Warn("ledger recovered-record append failed", "job", lj.ID, "err", err)
		}
		f.recovered.Add(1)
		// The re-dispatch joins the original submission's trace: the journal
		// recorded the trace id at acceptance, so the recovery spans land in
		// the same trace the (now dead) first incarnation was building —
		// with no recorded id (pre-tracing journal) this roots a fresh one.
		jsp := f.tracer.StartLinked(lj.Accepted.TraceID, "frontend.recover").Attr("job_id", lj.ID)
		j.setTrace(jsp.TraceID())
		f.launchJob(j, *lj.Accepted.Request, cells, sc, jsp, "")
	}
}

// LedgerHealth reports the boot-time ledger scan (zero when disabled).
func (f *Frontend) LedgerHealth() ledger.Health { return f.ledgerHealth }

// probe is the prober's readiness check: /readyz on the replica,
// distinguishing a draining worker from a dead one.
func (f *Frontend) probe(ctx context.Context, replica string) cluster.Status {
	err := f.clients[replica].Readyz(ctx)
	if errors.Is(err, client.ErrDraining) {
		return cluster.Status{Draining: true}
	}
	return cluster.Status{Err: err}
}

func (f *Frontend) snapshot() any { return f.Metrics() }

// stop stops the prober. Worker-side simulation keeps running — the
// workers own it.
func (f *Frontend) stop() { f.prober.Stop() }

// ---- routing ----

// candidates orders every replica by preference for key, and names its
// ring owner: the ring's preference list re-sorted by probed state — up
// replicas first, draining next (they still answer, they just should not
// get new work), dead last (the probe may be wrong; a dead-listed replica
// is still worth one try when nothing better exists). Among the up
// replicas, the one already running key comes first and those over the
// load bound last (bounded.go). Within a rank, ring order is kept, so two
// frontends with the same view and the same cells in flight produce the
// same order.
func (f *Frontend) candidates(key string) (cands []string, owner string) {
	pref := f.ring.Prefer(key)
	states := make([]cluster.State, len(pref))
	up := 0
	for i, rep := range pref {
		states[i] = f.prober.State(rep)
		if states[i] == cluster.StateUp {
			up++
		}
	}
	ranks := f.load.rank(key, pref, states, up)
	cands = make([]string, 0, len(pref))
	for want := 0; want < numRanks; want++ {
		for i, rep := range pref {
			if ranks[i] == want {
				cands = append(cands, rep)
			}
		}
	}
	return cands, pref[0]
}

// answerCell routes one /v1/sim cell to its preferred live replica,
// failing over down the candidate list on transport errors. Typed API
// errors pass through — the replica is alive and its answer (400, 429,
// 504, ...) is the answer. Identical concurrent cells collapse on the
// frontend's own single-flight so one network round trip serves them all
// (the worker's flight would collapse them anyway; this saves the
// duplicate hop). A routed cell has no stored encoding: body is nil.
func (f *Frontend) answerCell(ctx context.Context, req api.SimRequest, c cell, _ simConfig) (api.SimResponse, []byte, error) {
	key := c.key
	resp, _, err := f.flight.Do(ctx, key, func() (api.SimResponse, error) {
		cands, owner := f.candidates(key)
		tid := obs.FromContext(ctx).TraceID()
		// The routing decision as a span: the ring owner plus, on End,
		// every replica actually tried — the forensic answer to "why did
		// this cell land on worker 3".
		rsp := obs.FromContext(ctx).StartChild("frontend.route").Attr("key", key).Attr("owner", owner)
		var tried []string
		endRoute := func() { rsp.Attr("tried", strings.Join(tried, ",")).End() }
		var lastErr error
		for i, rep := range cands {
			tried = append(tried, rep)
			dsp := rsp.StartChild("frontend.dispatch").Attr("replica", rep)
			dctx := obs.ContextWithSpan(ctx, dsp)
			attempt := time.Now()
			f.load.add(key, rep)
			resp, winner, hedged, err := f.dispatchHedged(dctx, key, req, rep, f.hedgePeer(cands, i))
			f.load.done(key, rep)
			elapsed := time.Since(attempt)
			if err == nil || isAPIError(err) {
				// The replica answered (success or its typed verdict).
				outcome := "ok"
				switch {
				case hedged && winner != rep:
					outcome = "hedge-win"
				case hedged:
					outcome = "hedge-lose"
				}
				f.observeDispatch(outcome, elapsed, tid)
				dsp.Attr("outcome", outcome).Attr("winner", winner).Fail(err).End()
				endRoute()
				f.routed.Add(1)
				if err != nil {
					return api.SimResponse{}, err
				}
				return resp, nil
			}
			if ctx.Err() != nil {
				dsp.Fail(ctx.Err()).End()
				endRoute()
				return api.SimResponse{}, ctx.Err()
			}
			// Transport failure after the client's own retry budget:
			// decisive evidence the replica is gone. Mark it dead and fail
			// over; the next candidate resumes any journaled checkpoint from
			// the shared durable directory.
			f.observeDispatch("failover", elapsed, tid)
			dsp.Attr("outcome", "failover").Fail(err).End()
			f.prober.ReportFailure(winner, err, tid)
			f.failovers.Add(1)
			lastErr = err
		}
		endRoute()
		f.failoverExhausted.Add(1)
		if lastErr != nil {
			return api.SimResponse{}, fmt.Errorf("%w for %s: %v", errNoReplica, key, lastErr)
		}
		return api.SimResponse{}, fmt.Errorf("%w for %s", errNoReplica, key)
	})
	return resp, nil, err
}

// isAPIError reports whether err is a replica's typed verdict — an
// answer, not a transport failure.
func isAPIError(err error) bool {
	var ae *client.APIError
	return errors.As(err, &ae)
}

// observeDispatch records one dispatch attempt's latency under its
// outcome label.
func (f *Frontend) observeDispatch(outcome string, d time.Duration, traceID string) {
	if h := f.dispatchHist[outcome]; h != nil {
		h.observeTraced(d, traceID)
	}
}

// hedgePeer picks the backup replica for a hedged dispatch: the next
// candidate after i that the prober does not list as dead. Hedging onto a
// dead replica would just burn the hedge; "" means no hedge.
func (f *Frontend) hedgePeer(cands []string, i int) string {
	if f.cfg.HedgeAfter <= 0 {
		return ""
	}
	for _, rep := range cands[i+1:] {
		if f.prober.State(rep) != cluster.StateDead {
			return rep
		}
	}
	return ""
}

// dispatchHedged sends one cell to primary and, if it has not answered
// within HedgeAfter, to backup as well — the straggler hedge. The first
// decisive answer (success or a typed replica verdict) wins; the loser's
// context is cancelled, and the worker's content-addressed cache and
// single-flight guarantee the cancelled twin never double-counts the
// simulation. The winner is journaled (and both arms get spans marked
// winner/loser) so an operator can audit which replica answered. With
// hedging off or no backup candidate this is a plain single dispatch.
// Returns the answering replica and whether the hedge actually fired,
// so the caller's prober/histogram bookkeeping lands on the
// right name and outcome.
func (f *Frontend) dispatchHedged(ctx context.Context, key string, req api.SimRequest, primary, backup string) (api.SimResponse, string, bool, error) {
	if f.cfg.HedgeAfter <= 0 || backup == "" {
		resp, err := f.clients[primary].Sim(ctx, req)
		return resp, primary, false, err
	}
	type answer struct {
		resp api.SimResponse
		rep  string
		err  error
	}
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel() // cancels whichever arm lost (or never finished)
	ch := make(chan answer, 2)
	dispatch := func(rep string) {
		resp, err := f.clients[rep].Sim(hctx, req)
		ch <- answer{resp: resp, rep: rep, err: err}
	}
	parent := obs.FromContext(ctx)
	tid := parent.TraceID()
	starts := map[string]time.Time{primary: time.Now()}
	go dispatch(primary)
	timer := time.NewTimer(f.cfg.HedgeAfter)
	defer timer.Stop()
	hedged := false
	pending := 1
	for {
		select {
		case <-timer.C:
			if !hedged {
				hedged = true
				pending++
				f.hedgesLaunched.Add(1)
				starts[backup] = time.Now()
				go dispatch(backup)
			}
		case <-ctx.Done():
			return api.SimResponse{}, primary, hedged, ctx.Err()
		case a := <-ch:
			pending--
			if a.err == nil || isAPIError(a.err) {
				if hedged {
					loser := backup
					if a.rep == backup {
						loser = primary
						f.hedgesWon.Add(1)
					}
					// Both arms as spans, started at their true dispatch
					// times: the winner's span is the answered round trip,
					// the loser's ends now — at its cancellation.
					parent.StartChildAt("frontend.hedge-arm", starts[a.rep]).
						Attr("replica", a.rep).Attr("hedge", "winner").End()
					parent.StartChildAt("frontend.hedge-arm", starts[loser]).
						Attr("replica", loser).Attr("hedge", "loser").End()
					f.recordHedge(key, a.rep, loser)
				}
				return a.resp, a.rep, hedged, a.err
			}
			// Transport death of one arm. If the other arm is still out,
			// let it finish; bookkeep this one now so the prober learns of
			// it even though the caller only sees the final answer.
			if pending > 0 {
				f.prober.ReportFailure(a.rep, a.err, tid)
				continue
			}
			return a.resp, a.rep, hedged, a.err
		}
	}
}

// recordHedge journals a hedge outcome to the side ledger (sims have no
// per-job journal): the audit trail showing the loser was cancelled, not
// double-counted.
func (f *Frontend) recordHedge(key, winner, loser string) {
	if f.ledger == nil {
		return
	}
	rec := ledger.Record{Kind: ledger.KindHedge, CellKey: key, Winner: winner, Loser: loser}
	if err := f.ledger.AppendSide("hedges", rec); err != nil {
		f.logger.Warn("ledger hedge-record append failed", "cell", key, "err", err)
	}
}

// ---- batch coordination ----

// answerBatch answers a batch by sharding its cells over the fleet: each
// cell goes to its first untried candidate, placed in list order so that
// the load bound counts the cells placed before it, each group runs as one
// sub-batch on its replica, and groups whose replica fails are re-grouped
// onto the next candidate until every cell completes or runs out of
// replicas. A placed cell counts as in flight until its cell-done or its
// group's return. With j non-nil the groups run as async worker jobs whose
// event streams are republished (remapped to frontend cell indices) into
// j's broadcaster, and each cell is announced done once, by whichever comes
// first: its replica's own cell-done on the stream, its group's end, or its
// running out of replicas (cellAnnouncer). A cell is final only when its
// group's results are fetched, so a re-routed group still re-fetches cells
// already announced. Each cell routes by its resolved content address,
// computed exactly as the worker computes it, which is what keeps routing
// aligned with the workers' caches. Routed cells have no stored encodings:
// bodies is nil.
func (f *Frontend) answerBatch(ctx context.Context, req api.BatchRequest, resolved []cell, _ simConfig, j *job) (*api.BatchResponse, [][]byte, error) {
	list := req.CellList()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		cells = make([]api.SimResponse, len(list))
		done  = make([]bool, len(list))
		tried = make([]map[string]bool, len(list))
		ann   = newCellAnnouncer(j, list)
		// on is the replica each cell is in flight on, "" once released.
		// A cell is in one group per round and rounds do not overlap, so
		// each entry has one writer at a time.
		on      = make([]string, len(list))
		release = func(i int) {
			if on[i] != "" {
				f.load.done(resolved[i].key, on[i])
				on[i] = ""
			}
		}

		mu       sync.Mutex
		firstErr error
	)
	for i := range tried {
		tried[i] = make(map[string]bool)
	}
	for {
		// Group every unfinished cell under its best untried candidate.
		// Re-grouping each round folds in what the last round learned: a
		// replica that died re-sorts to the back of every preference list.
		groups := make(map[string]*group)
		for i := range list {
			if done[i] {
				continue
			}
			next := ""
			cands, owner := f.candidates(resolved[i].key)
			for _, rep := range cands {
				if !tried[i][rep] {
					next = rep
					break
				}
			}
			if next == "" {
				// Out of candidates: the cell fails in isolation, exactly
				// like a worker-side panic cell — the batch completes.
				f.failoverExhausted.Add(1)
				cells[i] = api.SimResponse{Key: resolved[i].key,
					Error: &api.Error{Code: api.CodeShuttingDown, Error: errNoReplica.Error() + " for " + resolved[i].key}}
				done[i] = true
				ann.announce(i, cells[i])
				continue
			}
			g := groups[next]
			if g == nil {
				g = &group{rep: next}
				groups[next] = g
			}
			g.idxs = append(g.idxs, i)
			if owner != next {
				g.offOwner++
			}
			tried[i][next] = true
			on[i] = next
			f.load.add(resolved[i].key, next)
		}
		if len(groups) == 0 {
			break
		}
		var wg sync.WaitGroup
		for _, g := range groups {
			rep, idxs := g.rep, g.idxs
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					for _, i := range idxs {
						release(i)
					}
				}()
				tid := obs.FromContext(ctx).TraceID()
				attempt := time.Now()
				results, err := f.runGroup(ctx, g, list, req, ann, release)
				elapsed := time.Since(attempt)
				if err != nil {
					if ctx.Err() != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = ctx.Err()
						}
						mu.Unlock()
						return
					}
					if !isAPIError(err) {
						// Transport death mid-group: the whole unfinished
						// group re-routes. Cells the dead worker already
						// completed land in the shared spill, so the
						// successor answers them as cache hits; its
						// in-flight cell resumes from the journaled
						// checkpoint instead of restarting.
						f.prober.ReportFailure(rep, err, tid)
					}
					f.observeDispatch("failover", elapsed, tid)
					f.failovers.Add(uint64(len(idxs)))
					return
				}
				f.observeDispatch("ok", elapsed, tid)
				f.routed.Add(uint64(len(idxs)))
				for n, i := range idxs {
					cells[i] = results[n]
					done[i] = true
					ann.announce(i, results[n])
				}
			}()
		}
		wg.Wait()
		mu.Lock()
		err := firstErr
		mu.Unlock()
		if err != nil {
			return nil, nil, err
		}
	}
	return tally(cells), nil, nil
}

// cellAnnouncer publishes a streamed frontend job's per-cell events and
// announces each cell's cell-done exactly once, from whichever path gets
// there first. The announced cell-done keeps that attempt's cached and
// error flags; a failover successor that later answers the cell (from the
// shared spill, cached) changes the cell's final result, not its
// announcement. Every event relayed for a cell after its announcement is
// dropped, so cell-done stays the cell's last event. A nil announcer
// (synchronous batches) publishes nothing.
type cellAnnouncer struct {
	j    *job
	list []api.CellRequest

	mu   sync.Mutex // orders each cell's relayed events against its announcement
	told []bool
}

func newCellAnnouncer(j *job, list []api.CellRequest) *cellAnnouncer {
	if j == nil {
		return nil
	}
	return &cellAnnouncer{j: j, list: list, told: make([]bool, len(list))}
}

// pub is cell idx's streaming identity on the frontend job.
func (a *cellAnnouncer) pub(idx int) *cellPub {
	return &cellPub{j: a.j, cell: idx, bench: a.list[idx].Workload.Kernel, tech: a.list[idx].Technique}
}

// relay republishes a worker event for cell idx unless the cell is
// already announced.
func (a *cellAnnouncer) relay(idx int, ev api.Event) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.told[idx] {
		a.pub(idx).publish(ev)
	}
}

// announce publishes cell idx's cell-done, with resp's key, cached flag
// and error, unless the cell already has one.
func (a *cellAnnouncer) announce(idx int, resp api.SimResponse) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.told[idx] {
		a.told[idx] = true
		a.pub(idx).done(resp)
	}
}

// group is one replica's share of a batch in one routing round: the cells
// placed on it, and how many of them another replica owns on the ring.
type group struct {
	rep      string
	idxs     []int
	offOwner int
}

// runGroup runs one replica's share of a batch and calls release for each
// cell whose cell-done it reads. Synchronous batches (ann == nil) use one
// blocking sub-batch call. Streamed jobs submit an async sub-batch,
// subscribe to its event stream, republish each event through ann with the
// cell index remapped from sub-batch to frontend coordinates (telemetry as
// the worker's bytes, see relayed), and poll the worker job for the final
// results. A worker cell-done is announced the moment it arrives: the
// worker publishes it only after the cell's result is cached and spilled to
// the shared directory, so a failover successor answers that cell from the
// spill or recomputes it bit-identically. The worker's job-done is not
// forwarded: the frontend emits its own when the whole cross-replica batch
// ends.
func (f *Frontend) runGroup(ctx context.Context, g *group, list []api.CellRequest, req api.BatchRequest, ann *cellAnnouncer, release func(int)) (_ []api.SimResponse, retErr error) {
	rep, idxs := g.rep, g.idxs
	// One span per replica-group dispatch: which worker got how many cells,
	// how many of them the load bound moved off their owner, failed on a
	// transport death (the caller then re-routes the group).
	gsp := obs.FromContext(ctx).StartChild("frontend.dispatch").
		Attr("replica", rep).Attr("cells", strconv.Itoa(len(idxs))).Attr("off_owner", strconv.Itoa(g.offOwner))
	defer func() {
		outcome := "ok"
		if retErr != nil && !isAPIError(retErr) {
			// A transport death (or cancellation): the caller re-routes the
			// group, so this attempt reads as the failover it triggered.
			outcome = "failover"
		}
		gsp.Attr("outcome", outcome).Fail(retErr).End()
	}()
	ctx = obs.ContextWithSpan(ctx, gsp)
	cl := f.clients[rep]
	sub := api.BatchRequest{
		Cells:     make([]api.CellRequest, len(idxs)),
		Config:    req.Config,
		TimeoutMS: req.TimeoutMS,
	}
	// Deadline propagation, frontend→worker hop: the sub-batch gets what
	// remains of our budget minus one hop margin, so a worker never starts
	// work its frontend's deadline has already doomed. (The client layer
	// also stamps X-Deadline-Ms from ctx on every request; this keeps the
	// job-level timeout_ms honest for the async path, where the worker job
	// outlives any single request.)
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl) - hopMargin
		if rem < minDeadlineBudget {
			rem = minDeadlineBudget
		}
		if ms := rem.Milliseconds(); sub.TimeoutMS == 0 || ms < sub.TimeoutMS {
			sub.TimeoutMS = ms
		}
	}
	for n, i := range idxs {
		sub.Cells[n] = list[i]
	}
	if ann == nil {
		resp, err := cl.Batch(ctx, sub)
		if err != nil {
			return nil, err
		}
		return resp.Cells, nil
	}
	sub.Async = true
	acc, err := cl.Batch(ctx, sub)
	if err != nil {
		return nil, err
	}
	st := cl.Stream(ctx, acc.JobID, api.StreamOptions{})
	defer st.Close()
	for {
		ev, err := st.NextRelay()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if ev.Kind == api.EventJobDone || ev.Cell < 0 || ev.Cell >= len(idxs) {
			continue
		}
		idx := idxs[ev.Cell]
		if ev.Kind == api.EventCellDone {
			resp := api.SimResponse{Key: ev.Key, Cached: ev.Cached}
			if ev.Error != "" {
				resp.Error = &api.Error{Error: ev.Error}
			}
			ann.announce(idx, resp)
			release(idx)
			continue
		}
		ann.relay(idx, relayed(ev))
	}
	js, err := cl.Job(ctx, acc.JobID)
	if err != nil {
		return nil, err
	}
	if js.State != api.JobDone || js.Batch == nil {
		return nil, fmt.Errorf("service: replica %s job %s ended %s: %s", rep, acc.JobID, js.State, js.Error)
	}
	return js.Batch.Cells, nil
}

// relayed rebuilds a worker's telemetry event for the frontend stream, so
// that worker-local identity (ID, JobID, cell index, progress counts)
// never leaks into it: the broadcaster assigns fresh IDs in frontend
// sequence and the cell's publisher its frontend coordinates. Telemetry
// read with NextRelay keeps its payload as the worker's bytes (Tail), so
// the frontend forwards what it never decoded.
func relayed(ev api.Event) api.Event {
	return api.Event{
		Kind:     ev.Kind,
		Key:      ev.Key,
		Cached:   ev.Cached,
		Replayed: ev.Replayed,
		Error:    ev.Error,
		Interval: ev.Interval,
		Episode:  ev.Episode,
		Tail:     ev.Tail,
	}
}

// hopMargin is the slice of deadline budget the frontend keeps for itself
// when forwarding to a worker: response decode, re-route bookkeeping.
const hopMargin = 50 * time.Millisecond

// handleJobTrace: the frontend keeps no interval-trace store — each
// worker holds only its own cells' series, and stitching them would
// duplicate what the live stream already delivers — so the default route
// answers a typed 404 pointing at the live stream and the workers. What
// the frontend does aggregate is the distributed span trace:
// ?view=cluster merges its own span slice with every worker's (pulled
// over GET /v1/spans) into one per-replica-track view of the job's
// trace; &format=perfetto renders it as a Perfetto/Chrome trace document
// instead of JSON.
func (f *Frontend) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("view") != "cluster" {
		writeJSON(w, http.StatusNotFound, api.Error{Code: api.CodeNotFound,
			Error: "service: the frontend does not aggregate interval traces; subscribe to /v1/jobs/{id}/stream, query the owning worker, or GET ?view=cluster for the distributed span trace"})
		return
	}
	if f.tracer == nil {
		writeJSON(w, http.StatusNotFound, api.Error{Code: api.CodeNotFound,
			Error: "service: span tracing is disabled (start the frontend with -trace-spans)"})
		return
	}
	id := r.PathValue("id")
	j, ok := f.jobs.get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, api.Error{Code: api.CodeNotFound, Error: fmt.Sprintf("service: unknown job %q", id)})
		return
	}
	tid := j.trace()
	if tid == "" {
		writeJSON(w, http.StatusNotFound, api.Error{Code: api.CodeNotFound,
			Error: fmt.Sprintf("service: job %q has no recorded trace (accepted before tracing was enabled)", id)})
		return
	}
	out := api.ClusterTrace{JobID: id, TraceID: tid}
	out.Slices = append(out.Slices, api.SpanSlice{
		Proc: f.tracer.Proc(), TraceID: tid, Spans: f.tracer.Slice(tid)})
	for _, rep := range f.cfg.Replicas {
		sl, err := f.clients[rep].Spans(r.Context(), tid)
		if err != nil {
			// A dead or tracing-disabled worker contributes an error marker,
			// not a merge failure: the rest of the fleet's view still renders.
			out.Slices = append(out.Slices, api.SpanSlice{Proc: rep, TraceID: tid, Err: err.Error()})
			continue
		}
		if len(sl.Spans) == 0 {
			continue // this worker saw none of the job's cells
		}
		out.Slices = append(out.Slices, sl)
	}
	if r.URL.Query().Get("format") == "perfetto" {
		slices := make([]obs.Slice, 0, len(out.Slices))
		for _, sl := range out.Slices {
			if sl.Err == "" {
				slices = append(slices, obs.Slice{Proc: sl.Proc, Spans: sl.Spans})
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = obs.WriteFleetPerfetto(w, slices)
		return
	}
	writeJSONTimed(r.Context(), w, http.StatusOK, out)
}

// Metrics snapshots the frontend's routing counters and the fleet's
// per-replica health.
func (f *Frontend) Metrics() api.ClusterMetrics {
	up, draining, dead := f.prober.Counts()
	snap := f.prober.Snapshot()
	sort.Slice(snap, func(a, b int) bool { return snap[a].Name < snap[b].Name })
	active, finished := f.jobs.counts()
	m := api.ClusterMetrics{
		Role:                "frontend",
		UptimeSeconds:       time.Since(f.start).Seconds(),
		RequestsTotal:       f.reqTotal.Load(),
		ReplicasUp:          up,
		ReplicasDraining:    draining,
		ReplicasDead:        dead,
		RoutedTotal:         f.routed.Load(),
		Failovers:           f.failovers.Load(),
		FailoverExhausted:   f.failoverExhausted.Load(),
		JobsActive:          active,
		JobsDone:            finished,
		LedgerJobsRecovered: f.recovered.Load(),
		IdempotentHits:      f.idemHits.Load(),
		HedgesLaunched:      f.hedgesLaunched.Load(),
		HedgesWon:           f.hedgesWon.Load(),
		DeadlineRejected:    f.deadlineRejected.Load(),
		ObsSpans:            f.tracer.Len(),
		ObsSpansDropped:     f.tracer.Dropped(),
	}
	if f.ledger != nil {
		m.LedgerRecords = f.ledger.Appends()
		m.LedgerAppendErrors = f.ledger.AppendErrors()
		m.LedgerQuarantined = f.ledger.Quarantined()
		m.LedgerTornRepaired = f.ledger.TornRepaired()
	}
	for _, r := range snap {
		m.ProbesTotal += r.ProbesTotal
		m.ProbeFailures += r.ProbeFailures
		m.Replicas = append(m.Replicas, api.ReplicaStatus{
			Name:          r.Name,
			State:         r.State.String(),
			ConsecFails:   r.ConsecFails,
			ProbesTotal:   r.ProbesTotal,
			ProbeFailures: r.ProbeFailures,
			LastError:     r.LastError,
			LastTraceID:   r.LastTraceID,
		})
	}
	return m
}

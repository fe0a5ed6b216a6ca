// Command dvrd serves simulations over HTTP/JSON: declarative jobs
// (kernel + graph parameters + technique + config) enter at POST /v1/sim
// and /v1/batch, run on a bounded worker pool with per-request deadlines,
// and land in a content-addressed result cache so repeated figure and
// sweep work becomes cache hits. See the README's "Running the dvrd
// service" section for endpoints and curl examples.
//
// Usage:
//
//	dvrd [-role single|worker|frontend] [-addr :8377]
//	     [-workers N] [-queue N] [-cache N] [-cache-dir DIR]
//	     [-checkpoint-every N] [-watchdog N] [-timeout 5m]
//	     [-trace-interval N] [-trace-spans N] [-pprof-addr HOST:PORT]
//	     [-stream-replay N] [-stream-heartbeat 15s] [-log]
//	     [-replicas URL,URL,...] [-probe-interval 1s] [-fail-threshold 3]
//	     [-drain-grace 5s] [-ledger-dir DIR] [-hedge-after 300ms]
//
// Roles: the default single role is the standalone server. A cluster
// splits into -role=worker replicas (same server, plus a drain-aware
// /readyz and a grace period between unready and listener close) fronted
// by a -role=frontend router that shards jobs over -replicas by content
// address on a consistent-hash ring, probes each replica's /readyz every
// -probe-interval, marks a replica dead after -fail-threshold consecutive
// failures (or one decisive data-path failure), and fails its cells over
// to ring successors — which resume journaled checkpoints when the fleet
// shares a durable -cache-dir. See DESIGN.md, "Cluster architecture", and
// the README's multi-node quickstart.
//
// Observability: every request gets an X-Request-ID (reused when a
// frontend already stamped one, so both tiers log the same id per hop)
// and, with -log, a structured JSON log line on stderr with span timings
// (queue wait → simulate → encode) and trace_id/span_id correlation
// fields. GET /metrics serves the counter snapshot as JSON (default) or
// Prometheus text exposition under "Accept: text/plain", including
// request-latency and queue-wait histograms (workers) or cluster_*
// routing counters, per-replica health gauges, and the per-outcome
// dvrd_dispatch_attempt_seconds histogram (frontend); under
// "Accept: application/openmetrics-text" histogram buckets additionally
// carry trace-id exemplars. With -trace-interval N every simulation
// samples IPC/MLP/prefetch telemetry each N committed instructions; a
// finished async job's per-cell series is served at
// GET /v1/jobs/{id}/trace.
//
// Distributed tracing: with -trace-spans N (on by default, N span-ring
// entries per process) every request runs as a span tree propagated
// across the frontend→worker hop via the X-Trace-Ctx header — routing
// decision, per-attempt dispatches, hedge winners/losers, worker
// queue-wait/sim/encode. Each process serves its slice of a trace at
// GET /v1/spans?trace={id}; the frontend merges the fleet's slices at
// GET /v1/jobs/{id}/trace?view=cluster (add &format=perfetto for a
// Perfetto/Chrome trace document). On SIGTERM, panic recovery, or a
// watchdog livelock trip the process seals a flight record — the last N
// spans and error events — under its forensics directory. -trace-spans 0
// disables all of it at zero request-path cost. -pprof-addr starts an
// optional net/http/pprof listener (both roles) on a separate address,
// off by default.
//
// Async batch jobs also stream live over SSE at GET /v1/jobs/{id}/stream:
// cell lifecycle, per-interval telemetry as each sample lands, and
// runahead episodes. Each job keeps one bounded event log (-stream-replay
// events) that every subscriber reads as a cursor: it is both the
// Last-Event-ID resume window and how far a reader may lag before it
// loses its oldest unread telemetry. The frontend serves the same
// stream for cluster batches, republishing each worker's events under its
// own job's sequence. See DESIGN.md, "Streaming".
//
// With -ledger-dir, a frontend journals every accepted async job to a
// sealed append-only ledger and replays it at restart: accepted-but-
// unfinished jobs re-dispatch over the ring under their original job id
// and stream identity, finished ones keep answering idempotent
// re-submissions (clients send an Idempotency-Key header or the
// idempotency_key request field) with the original results. Clients may
// also propagate their remaining deadline per hop via X-Deadline-Ms;
// requests whose budget is already exhausted are refused up front with
// 504. -hedge-after enables straggler hedging for single-cell requests.
// A worker whose -queue is full sheds interactive requests with 429 +
// Retry-After. See DESIGN.md, "Exactly-once & overload control".
//
// With -cache-dir and -checkpoint-every, running simulations journal
// their state to <dir>/checkpoints and a dvrd killed mid-job resumes the
// interrupted work at the next startup; -watchdog bounds how long a
// simulation may go without committing an instruction before it is
// aborted with a livelock error and a forensics dump under
// <dir>/forensics. See the README's "Durable jobs" notes for tuning.
//
// SIGINT/SIGTERM trigger a graceful shutdown: /readyz flips to 503
// "draining" so frontends stop routing here, the listener stays open for
// -drain-grace (workers; zero for single/frontend), then closes; in-
// flight requests and async jobs drain, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dvr/internal/service"
	"dvr/internal/workloads"
)

func main() {
	var (
		role      = flag.String("role", "single", "process role: single (standalone server), worker (cluster replica), frontend (cluster router)")
		addr      = flag.String("addr", ":8377", "listen address")
		workers   = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 256, "queued simulations; past it interactive requests are shed with 429 and batch cells wait")
		cacheN    = flag.Int("cache", 4096, "in-memory result-cache entries")
		cacheDir  = flag.String("cache-dir", "", "spill cached results to this directory (optional; share it across worker replicas for cross-replica failover)")
		ckptN     = flag.Uint64("checkpoint-every", 0, "checkpoint running simulations every N committed instructions so a killed dvrd resumes them at restart (requires -cache-dir; 0 = off)")
		watchdog  = flag.Uint64("watchdog", 0, "abort any simulation that commits nothing for N cycles with a livelock error and forensics dump (0 = off)")
		timeout   = flag.Duration("timeout", 5*time.Minute, "default per-request deadline")
		drain     = flag.Duration("drain", 2*time.Minute, "graceful-shutdown deadline")
		traceIvl  = flag.Uint64("trace-interval", 10_000, "sample interval telemetry every N committed instructions per simulation, served at /v1/jobs/{id}/trace (0 = off)")
		strReplay = flag.Int("stream-replay", 0, "per-job event-log entries: the SSE Last-Event-ID resume window and how far a subscriber may lag before it loses its oldest telemetry (0 = 4096)")
		strHB     = flag.Duration("stream-heartbeat", 0, "SSE heartbeat interval on quiet streams (0 = 15s)")
		logReqs   = flag.Bool("log", false, "log one structured JSON line per request to stderr")
		spans     = flag.Int("trace-spans", 4096, "distributed-tracing span-ring entries per process; spans propagate via X-Trace-Ctx and serve at /v1/spans (0 = off)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060; empty = off)")

		replicas   = flag.String("replicas", "", "frontend: comma-separated worker base URLs (e.g. http://w1:8377,http://w2:8377)")
		probeIvl   = flag.Duration("probe-interval", time.Second, "frontend: per-replica /readyz heartbeat period")
		failThresh = flag.Int("fail-threshold", 3, "frontend: consecutive probe failures before a replica is marked dead")
		drainGrace = flag.Duration("drain-grace", 5*time.Second, "worker: time between /readyz flipping to draining and the listener closing, so frontends stop routing here first")

		ledgerDir  = flag.String("ledger-dir", "", "frontend: journal accepted async jobs to this directory and recover them at restart (empty = stateless frontend)")
		hedgeAfter = flag.Duration("hedge-after", 0, "frontend: launch a backup dispatch for a sim cell unanswered after this long (0 = off)")
	)
	flag.Parse()

	if *ckptN > 0 && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "dvrd: -checkpoint-every requires -cache-dir (checkpoints live beside the spill)")
		os.Exit(2)
	}

	var logger *slog.Logger
	if *logReqs {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}

	startPprof(*pprofAddr)

	common := service.Common{
		DefaultTimeout:  *timeout,
		StreamReplay:    *strReplay,
		StreamHeartbeat: *strHB,
		Logger:          logger,
		TraceSpans:      *spans,
		ProcName:        *role + "@" + *addr,
	}
	var (
		proc   process
		banner string        // the role part of the "listening" line
		grace  time.Duration // how long /readyz reads draining before the listener closes
	)
	switch *role {
	case "single", "worker":
		srv := service.New(service.Config{
			Common:             common,
			Workers:            *workers,
			QueueDepth:         *queue,
			CacheEntries:       *cacheN,
			CacheDir:           *cacheDir,
			CheckpointEvery:    *ckptN,
			WatchdogCycles:     *watchdog,
			TraceIntervalEvery: *traceIvl,
		})
		if *cacheDir != "" {
			h := srv.SpillHealth()
			fmt.Printf("dvrd: spill scan: %d entries, %d healthy, %d quarantined\n",
				h.Scanned, h.Healthy, h.Quarantined)
		}
		if *ckptN > 0 {
			ch := srv.CheckpointHealth()
			fmt.Printf("dvrd: checkpoint scan: %d journals, %d healthy, %d quarantined, %d dropped\n",
				ch.Scanned, ch.Healthy, ch.Quarantined, ch.Dropped)
			if len(ch.Pending) > 0 {
				fmt.Printf("dvrd: resuming %d interrupted job(s) in the background\n", len(ch.Pending))
			}
		}
		proc, banner = srv, fmt.Sprintf("role %s, %d kernels registered", *role, len(workloads.Kernels()))
		if *role == "worker" {
			// A worker gives its frontends' probers a window to see it
			// draining before connections start being refused.
			grace = *drainGrace
		}
	case "frontend":
		var clean []string
		for _, r := range strings.Split(*replicas, ",") {
			if r = strings.TrimSpace(r); r != "" {
				clean = append(clean, r)
			}
		}
		if len(clean) == 0 {
			fmt.Fprintln(os.Stderr, "dvrd: -role=frontend requires -replicas URL[,URL...]")
			os.Exit(2)
		}
		fe, err := service.NewFrontend(service.FrontendConfig{
			Common:        common,
			Replicas:      clean,
			ProbeInterval: *probeIvl,
			FailThreshold: *failThresh,
			LedgerDir:     *ledgerDir,
			HedgeAfter:    *hedgeAfter,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "dvrd:", err)
			os.Exit(2)
		}
		if *ledgerDir != "" {
			lh := fe.LedgerHealth()
			fmt.Printf("dvrd: ledger scan: %d journals, %d healthy, %d quarantined, %d dropped, %d torn repaired\n",
				lh.Scanned, lh.Healthy, lh.Quarantined, lh.Dropped, lh.Torn)
			if len(lh.Pending) > 0 {
				fmt.Printf("dvrd: recovering %d interrupted job(s) in the background\n", len(lh.Pending))
			}
		}
		proc, banner = fe, fmt.Sprintf("role frontend, %d replicas", len(clean))
	default:
		fmt.Fprintf(os.Stderr, "dvrd: unknown -role %q (single, worker, frontend)\n", *role)
		os.Exit(2)
	}
	run(proc, *addr, banner, *drain, grace)
}

// startPprof serves net/http/pprof on its own listener when addr is set.
// A separate address (never the service port) keeps the profiler off the
// data path and lets an operator firewall it independently; registration
// is explicit on a private mux so nothing else leaks onto the listener.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		fmt.Printf("dvrd: pprof listening on %s\n", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintln(os.Stderr, "dvrd: pprof:", err)
		}
	}()
}

// process is the lifecycle both roles expose.
type process interface {
	Handler() http.Handler
	DumpFlight(reason string) string
	BeginDrain()
	Shutdown(context.Context) error
}

// run serves p on addr until SIGINT/SIGTERM, then drains: it seals the
// flight record, flips /readyz to draining and keeps the listener open
// for grace so routers stop sending work here, closes the listener, and
// waits up to drain for in-flight requests and async jobs.
func run(p process, addr, banner string, drain, grace time.Duration) {
	httpSrv := &http.Server{Addr: addr, Handler: p.Handler()}
	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("dvrd: listening on %s (%s)\n", addr, banner)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)

	select {
	case sig := <-sigCh:
		fmt.Printf("dvrd: %s, draining\n", sig)
		// Seal the flight record first — what the process was doing when
		// the operator (or orchestrator) pulled the plug — while the span
		// ring still holds the final requests.
		if path := p.DumpFlight("sigterm"); path != "" {
			fmt.Printf("dvrd: flight record sealed at %s\n", path)
		}
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "dvrd:", err)
		os.Exit(1)
	}

	p.BeginDrain()
	time.Sleep(grace)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "dvrd: http shutdown:", err)
	}
	if err := p.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "dvrd: drain:", err)
		os.Exit(1)
	}
	fmt.Println("dvrd: clean shutdown")
}

// Command sftserve runs the HTTP solving service: stateless /v1/solve
// (MSA+OPA, or stage one alone) and /v1/validate endpoints plus a
// stateful /v1/sessions API backed by the dynamic session manager — the
// shape in which an SDN controller would consume this library. The
// comparison algorithms and rendering are offline tools (sftembed,
// sftbench), not part of the controller.
//
// Observability is built in: every request gets an X-Request-ID and a
// structured access log line, GET /metrics serves the JSON metrics
// snapshot (per-route latency histograms, solver phase timings,
// session lifecycle counters, cache hit rates and Go-runtime levels,
// all read at scrape time), GET /debug/traces the bounded ring of
// request-scoped solver traces keyed by request ID, GET /readyz the readiness
// probe, and -debug additionally mounts net/http/pprof under
// /debug/pprof/ and the expvar dump under /debug/vars. SIGINT/SIGTERM trigger a graceful
// http.Server.Shutdown so in-flight solves finish, then the final
// metrics snapshot is flushed to the log.
//
// Usage:
//
//	sftserve -listen :8080 -network inst.json    # sessions on a file-loaded network
//	sftserve -listen :8080 -nodes 50             # sessions on a generated network
//	sftserve -listen :8080 -stateless            # stateless endpoints only
//	sftserve -listen :8080 -debug                # + pprof and expvar endpoints
//	sftserve -listen :8080 -nodes 50 -wal-dir /var/lib/sft/wal
//
// With -wal-dir the session API is durable: every admission, release
// and repair outcome is written to a checksummed write-ahead log
// before it commits, a compacted snapshot is folded in every
// -snapshot-interval, and a restart replays the log — the process
// comes back with every committed session, its refcount ledger and
// its accounting intact, cross-checked against the conformance
// validator before serving. -fsync always (the default) syncs each
// record on the commit path, before the client is acked; -fsync none
// leaves the records to the OS page cache, which survives a process
// kill but not an OS crash. Recovery counters (replayed records,
// replay duration, torn-tail detection, unplaceable instances) are
// published in /metrics. On graceful shutdown the server drains
// in-flight admissions, writes a final snapshot and closes the log.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sftree/internal/core"
	"sftree/internal/dynamic"
	"sftree/internal/netgen"
	"sftree/internal/nfv"
	"sftree/internal/obs"
	"sftree/internal/server"
	"sftree/internal/wal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		slog.Error("sftserve failed", "err", err)
		os.Exit(1)
	}
}

// onReady, when set (tests), receives the bound listen address.
var onReady func(addr string)

// shutdownSteps names the ordered phases of a graceful stop. Any step
// may be nil (the feature is not enabled); runShutdown skips nils but
// never reorders: the HTTP listener drains first (no new enqueues),
// then the queue drains (accepted tickets resolve), then the manager
// waits out in-flight commits, then the final snapshot folds the WAL,
// and only then does the log close.
type shutdownSteps struct {
	httpShutdown func(context.Context) error
	queueDrain   func(context.Context) error
	mgrDrain     func(context.Context) error
	checkpoint   func() (uint64, error)
	closeWAL     func() error
}

// runShutdown executes the steps in order under one drain budget. The
// HTTP shutdown error is returned (it decides the exit status); later
// failures are logged and do not abort the remaining steps — a stuck
// queue must not keep the WAL from its final snapshot.
func runShutdown(ctx context.Context, steps shutdownSteps, logger *slog.Logger) error {
	var httpErr error
	if steps.httpShutdown != nil {
		httpErr = steps.httpShutdown(ctx)
	}
	if steps.queueDrain != nil {
		if err := steps.queueDrain(ctx); err != nil {
			logger.Error("drain admission queue", "err", err)
		}
	}
	if steps.mgrDrain != nil {
		if err := steps.mgrDrain(ctx); err != nil {
			logger.Error("drain in-flight admissions", "err", err)
		}
	}
	if steps.checkpoint != nil {
		if seq, err := steps.checkpoint(); err != nil {
			logger.Error("final snapshot failed", "err", err)
		} else {
			logger.Info("final snapshot written", "seq", seq)
		}
	}
	if steps.closeWAL != nil {
		if err := steps.closeWAL(); err != nil {
			logger.Error("close wal", "err", err)
		}
	}
	return httpErr
}

// publishRecovery exposes the restore outcome in /metrics, so a
// scraper can tell a clean boot from one that replayed a torn log or
// degraded sessions the topology no longer supports.
func publishRecovery(reg *obs.Registry, rep *dynamic.RecoverReport) {
	reg.Gauge("restore_snapshot_seq").Set(int64(rep.SnapshotSeq))
	reg.Gauge("restore_replayed_records").Set(int64(rep.ReplayedRecords))
	reg.Gauge("restore_sessions_recovered").Set(int64(rep.SessionsRecovered))
	reg.Gauge("restore_refs_deployed").Set(int64(rep.RefsDeployed))
	reg.Gauge("restore_refs_unplaceable").Set(int64(rep.RefsUnplaceable))
	reg.Gauge("restore_sessions_degraded").Set(int64(rep.SessionsDegraded))
	reg.Gauge("restore_replay_ms").Set(rep.ReplayDuration.Milliseconds())
	if rep.TornTail {
		reg.Gauge("restore_torn_tail").Set(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sftserve", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", ":8080", "listen address")
		netFile   = fs.String("network", "", "instance JSON whose network backs the session API")
		nodes     = fs.Int("nodes", 50, "generate a network of this size when -network is empty")
		seed      = fs.Int64("seed", 1, "seed for the generated network")
		stateless = fs.Bool("stateless", false, "serve only the stateless endpoints")
		debug     = fs.Bool("debug", false, "mount /debug/pprof/ and /debug/vars")
		drain     = fs.Duration("shutdown-timeout", 10*time.Second, "graceful shutdown drain budget")
		solveMax  = fs.Duration("solve-timeout", 0, "ceiling on any one solve/admission; the solver returns its best embedding so far at the deadline (0 = unbounded)")
		queueDep  = fs.Int("queue-depth", 256, "bounded admission queue depth for POST /v1/sessions (at least 1); overflow answers 429 with Retry-After")
		walDir    = fs.String("wal-dir", "", "write-ahead-log directory for durable admission state; empty disables durability")
		snapEvery = fs.Duration("snapshot-interval", time.Minute, "how often to fold the WAL into a compacted snapshot; 0 disables periodic snapshots")
		fsyncPol  = fs.String("fsync", "always", "WAL fsync policy: always (fsync per commit) or none (OS-buffered)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *queueDep < 1 {
		// Every admission goes through the queue, and zero would quietly
		// take queue.New's default: refuse it rather than pick a depth
		// the operator did not ask for.
		return fmt.Errorf("-queue-depth %d: the admission queue needs a depth of at least 1", *queueDep)
	}
	if *stateless && *walDir != "" {
		// A stateless server has no sessions to log: refuse rather than
		// serve without the durability the operator asked for.
		return fmt.Errorf("-stateless with -wal-dir %s: a stateless server keeps no session state to log", *walDir)
	}

	var network *nfv.Network
	switch {
	case *stateless:
		// nil network: session endpoints answer 501.
	case *netFile != "":
		blob, err := os.ReadFile(*netFile)
		if err != nil {
			return err
		}
		var doc nfv.InstanceDoc
		if err := json.Unmarshal(blob, &doc); err != nil {
			return fmt.Errorf("parse %s: %w", *netFile, err)
		}
		network = doc.Network
	default:
		var err error
		network, err = netgen.Generate(netgen.PaperConfig(*nodes, 2), rand.New(rand.NewSource(*seed)))
		if err != nil {
			return err
		}
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	reg := obs.NewRegistry()
	reg.PublishExpvar("sftree")

	// With -wal-dir, recover durable admission state before serving:
	// any committed session from a previous incarnation is replayed,
	// re-deployed and conformance-checked, and the restored manager is
	// handed to the server instead of a fresh one.
	var (
		mgr    *dynamic.Manager
		walLog *wal.Log
	)
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsyncPol)
		if err != nil {
			return err
		}
		l, rec, err := wal.Open(*walDir, wal.Config{Policy: policy})
		if err != nil {
			return fmt.Errorf("open wal %s: %w", *walDir, err)
		}
		m, rrep, err := dynamic.Restore(network, l, rec, core.Options{})
		if err != nil {
			l.Close()
			return fmt.Errorf("restore from %s: %w", *walDir, err)
		}
		mgr, walLog = m, l
		publishRecovery(reg, rrep)
		logger.Info("admission state restored",
			"dir", *walDir,
			"snapshot_seq", rrep.SnapshotSeq,
			"replayed", rrep.ReplayedRecords,
			"sessions", rrep.SessionsRecovered,
			"torn_tail", rrep.TornTail,
			"unplaceable", rrep.RefsUnplaceable,
			"degraded", rrep.SessionsDegraded,
			"replay_ms", rrep.ReplayDuration.Milliseconds())
	}

	srv := server.NewWith(network, core.Options{}, server.Config{
		Registry:     reg,
		Logger:       logger,
		SolveTimeout: *solveMax,
		Manager:      mgr,
		QueueDepth:   *queueDep,
	})

	// Periodic compaction: fold the WAL into a snapshot so restart
	// replay stays bounded by -snapshot-interval worth of records. A
	// swallowed repair/rebase append failure marks the manager
	// checkpoint-dirty; the fast poll folds a snapshot immediately so
	// durable history does not trail the live state for a full
	// interval (or forever, with periodic snapshots disabled).
	if walLog != nil {
		go func() {
			checkpoint := func(reason string) {
				if seq, err := srv.Manager().Checkpoint(); err != nil {
					logger.Error("snapshot failed", "reason", reason, "err", err)
				} else {
					logger.Info("snapshot written", "reason", reason, "seq", seq)
				}
			}
			dirty := time.NewTicker(time.Second)
			defer dirty.Stop()
			var interval <-chan time.Time
			if *snapEvery > 0 {
				tick := time.NewTicker(*snapEvery)
				defer tick.Stop()
				interval = tick.C
			}
			for {
				select {
				case <-ctx.Done():
					return
				case <-interval:
					checkpoint("interval")
				case <-dirty.C:
					if srv.Manager().NeedsCheckpoint() {
						checkpoint("wal divergence")
					}
				}
			}
		}()
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv)
	if *debug {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/vars", expvar.Handler())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ConnState:         obs.ConnState(reg),
	}
	logger.Info("sftserve listening",
		"addr", ln.Addr().String(), "sessions", network != nil, "debug", *debug)
	if onReady != nil {
		onReady(ln.Addr().String())
	}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight solves finish,
	// then run the durability epilogue in its fixed order — queue
	// drain strictly after the HTTP drain (handlers blocked on tickets
	// have returned; accepted tickets still resolve), manager drain
	// after that (a commit raced against the deadline may still hold
	// the WAL), then the final snapshot so the next boot replays
	// nothing, and only then the log close.
	logger.Info("shutting down", "drain", drain.String())
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	steps := shutdownSteps{
		httpShutdown: func(ctx context.Context) error {
			err := hs.Shutdown(ctx)
			<-errCh // Serve has returned http.ErrServerClosed
			return err
		},
	}
	if q := srv.Queue(); q != nil {
		steps.queueDrain = q.Close
	}
	if walLog != nil {
		m := srv.Manager()
		steps.mgrDrain = m.Drain
		steps.checkpoint = m.Checkpoint
		steps.closeWAL = walLog.Close
	}
	shutdownErr := runShutdown(sctx, steps, logger)

	// Final metrics flush, so a terminated process leaves its counters
	// in the log.
	if blob, err := json.Marshal(reg.Snapshot()); err == nil {
		logger.Info("final metrics", "metrics", string(blob))
	}
	if shutdownErr != nil {
		return fmt.Errorf("shutdown: %w", shutdownErr)
	}
	logger.Info("sftserve stopped")
	return nil
}

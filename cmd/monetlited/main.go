// Command monetlited runs the embedded MonetDB-like database server: the
// substrate the devUDF plugin connects to. It serves one named database
// over the wire protocol with a single user account.
//
// With -data DIR the database is durable: every committed statement is
// appended to a write-ahead log under DIR, compacted into compressed
// columnar snapshots, and recovered on the next start — surviving kill -9.
// DIR also remains the directory COPY INTO and UDF file access resolve
// against.
//
// With -metrics-addr the process serves Prometheus text metrics on
// /metrics and the pprof profiling handlers on /debug/pprof/, covering
// every layer (wire, engine, UDF runtimes, WAL). -slow-query-ms logs a
// structured line with the per-stage span breakdown for queries past the
// threshold, and the same spans are queryable as the sys.query_log
// virtual table.
//
// The resilience flags bound what any one client can cost the server:
// -query-timeout aborts runaway statements, -max-conns and
// -max-queue-depth cap concurrency and pipelining (excess requests get a
// retryable overload error), -rate-limit/-rate-burst throttle per
// session, -max-result-rows/-max-result-bytes bound result sizes,
// -udf-wall-budget limits each UDF invocation's wall time, and
// -drain-timeout puts a deadline on graceful shutdown.
//
// Usage:
//
//	monetlited -addr :50000 -db demo -user monetdb -password monetdb \
//	           -data ./datadir -init setup.sql
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/wal"
	"repro/monetlite"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:50000", "listen address")
	dbName := flag.String("db", "demo", "database name clients must present")
	user := flag.String("user", "monetdb", "user account")
	password := flag.String("password", "monetdb", "user password")
	dataDir := flag.String("data", "", "data directory: WAL + snapshots live here (durable across kill -9), and COPY INTO / UDF file access resolve against it (empty: in-memory database, process cwd for files)")
	walSync := flag.String("wal-sync", "interval", "WAL fsync policy: interval (group commit), always (fsync per commit), never")
	initFile := flag.String("init", "", "SQL script to execute at startup")
	tupleMode := flag.Bool("tuple-at-a-time", false, "use the tuple-at-a-time UDF processing model (paper §2.4)")
	maxSteps := flag.Int64("max-udf-steps", 50_000_000, "interpreter step budget per UDF call (0 = unlimited)")
	streamThreshold := flag.Int("stream-threshold", 1<<20, "encoded result size (bytes) above which a result is sent as a chunked stream (negative streams everything)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (empty: disabled)")
	slowQueryMs := flag.Int("slow-query-ms", 0, "log one structured line with the per-stage span breakdown for queries slower than this many milliseconds (0: disabled)")
	queryTimeout := flag.Duration("query-timeout", 0, "abort any query running longer than this, measured from dequeue (0: unlimited)")
	maxConns := flag.Int("max-conns", 0, "reject new connections past this many concurrent sessions with a retryable error (0: unlimited)")
	maxQueueDepth := flag.Int("max-queue-depth", 0, "pipelined requests buffered per connection before shedding with a retryable error (0: default 256, negative: unbounded)")
	rateLimit := flag.Float64("rate-limit", 0, "sustained queries/second admitted per session; excess requests shed with a retryable error (0: unlimited)")
	rateBurst := flag.Int("rate-burst", 0, "token-bucket burst size for -rate-limit (below 1, including the default 0: a burst of 1)")
	maxResultRows := flag.Int64("max-result-rows", 0, "fail queries whose result exceeds this many rows (0: unlimited)")
	maxResultBytes := flag.Int("max-result-bytes", 0, "refuse to send results larger than this many encoded bytes (0: unlimited)")
	udfWallBudget := flag.Duration("udf-wall-budget", 0, "wall-clock budget per UDF invocation across all runtimes (0: unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 0, "on shutdown, force-abort sessions still executing after this long (0: wait for in-flight statements)")
	flag.Parse()

	db := monetlite.NewDB()
	db.FS = core.OSFS{Dir: *dataDir}
	db.MaxUDFSteps = *maxSteps
	db.MaxResultRows = *maxResultRows
	db.MaxUDFWall = *udfWallBudget
	if *tupleMode {
		db.Mode = monetlite.ModeTupleAtATime
	}

	var mgr *wal.Manager
	if *dataDir != "" {
		opts := wal.Options{Logf: log.Printf}
		switch *walSync {
		case "interval":
			opts.Sync = wal.SyncInterval
		case "always":
			opts.Sync = wal.SyncAlways
		case "never":
			opts.Sync = wal.SyncNever
		default:
			log.Fatalf("unknown -wal-sync mode %q (want interval, always, or never)", *walSync)
		}
		var err error
		if mgr, err = wal.Open(*dataDir, db, opts); err != nil {
			log.Fatalf("open data dir %s: %v", *dataDir, err)
		}
		log.Printf("durable storage at %s (wal segment %s)", *dataDir, *walSync)
	}

	if *initFile != "" {
		script, err := os.ReadFile(*initFile)
		if err != nil {
			log.Fatalf("read init script: %v", err)
		}
		conn := monetlite.Connect(db, *user, *password)
		if _, err := conn.ExecAll(string(script)); err != nil {
			log.Fatalf("init script: %v", err)
		}
		log.Printf("applied init script %s", *initFile)
	}

	srv := monetlite.NewServer(*dbName, *user, *password, db)
	srv.Logf = log.Printf
	srv.StreamThreshold = *streamThreshold
	srv.QueryTimeout = *queryTimeout
	srv.MaxConns = *maxConns
	srv.MaxQueueDepth = *maxQueueDepth
	srv.RateLimit = *rateLimit
	srv.RateBurst = *rateBurst
	srv.MaxResultBytes = *maxResultBytes
	srv.DrainTimeout = *drainTimeout

	var stack *obsStack
	if *metricsAddr != "" || *slowQueryMs > 0 {
		stack = enableObs(db, srv, mgr, *slowQueryMs)
	}

	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	if *metricsAddr != "" {
		maddr, err := stack.serve(*metricsAddr)
		if err != nil {
			log.Fatalf("metrics listen: %v", err)
		}
		log.Printf("metrics on http://%s/metrics, pprof on http://%s/debug/pprof/", maddr, maddr)
	}
	fmt.Printf("monetlited: serving database %q on %s (mode: %s)\n", *dbName, bound, db.Mode)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nmonetlited: draining connections and shutting down")
	if err := drainAndStop(srv, stack); err != nil {
		log.Fatalf("close: %v", err)
	}
	if mgr != nil {
		// A clean shutdown checkpoints so the next start recovers from the
		// snapshot alone, with no log to replay.
		if err := db.Checkpoint(); err != nil {
			log.Printf("final checkpoint: %v", err)
		}
		if err := mgr.Close(); err != nil {
			log.Printf("close wal: %v", err)
		}
		log.Printf("database persisted to %s", *dataDir)
	}
}

package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
	"repro/monetlite"
)

// startStack boots the full monetlited serving stack in-process: durable
// engine, wire server, and diagnostics listener — the same wiring main()
// does, through the same helpers.
func startStack(t *testing.T, slowQueryMs int) (*monetlite.Server, *obsStack, monetlite.ConnParams, string) {
	t.Helper()
	db := monetlite.NewDB()
	mgr, err := wal.Open(t.TempDir(), db, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	srv := monetlite.NewServer("demo", "monetdb", "secret", db)
	stack := enableObs(db, srv, mgr, slowQueryMs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	maddr, err := stack.serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stack.shutdown() })
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		t.Fatal(err)
	}
	port, _ := strconv.Atoi(portStr)
	params := monetlite.ConnParams{
		Host: host, Port: port, Database: "demo",
		User: "monetdb", Password: "secret",
	}
	return srv, stack, params, maddr
}

// TestMetricsListenerStopsWithDrain: the SIGTERM sequence must take the
// diagnostics port down with the query port instead of leaking the HTTP
// listener past the drain.
func TestMetricsListenerStopsWithDrain(t *testing.T) {
	srv, stack, _, maddr := startStack(t, 0)
	resp, err := http.Get("http://" + maddr + "/metrics")
	if err != nil {
		t.Fatalf("metrics endpoint should serve before the drain: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if err := drainAndStop(srv, stack); err != nil {
		t.Fatal(err)
	}
	// Shutdown closes the listener before returning, so a fresh dial must
	// be refused immediately.
	if c, err := net.DialTimeout("tcp", maddr, time.Second); err == nil {
		c.Close()
		t.Fatal("metrics listener still accepting after the drain")
	}
}

// TestDrainAndStopWithoutMetrics: the shutdown path must be a no-op safe
// when observability was never enabled (nil stack).
func TestDrainAndStopWithoutMetrics(t *testing.T) {
	db := monetlite.NewDB()
	srv := monetlite.NewServer("demo", "monetdb", "secret", db)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := drainAndStop(srv, nil); err != nil {
		t.Fatal(err)
	}
}

// TestExpositionRoundTripUnderLoad drives concurrent queries (including
// a UDF and WAL-committed inserts) through the wire protocol, scrapes
// /metrics over real HTTP, re-parses the text format, and asserts the
// core series are present and well-formed.
func TestExpositionRoundTripUnderLoad(t *testing.T) {
	_, _, params, maddr := startStack(t, 0)

	c, err := monetlite.DialContext(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`CREATE TABLE load (i INTEGER, f DOUBLE)`,
		`CREATE FUNCTION double_it(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    out = []
    for v in i:
        out.append(v * 2)
    return out
}`,
	} {
		if _, _, err := c.Query(context.Background(), sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	c.Close()

	const workers, rounds = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cc, err := monetlite.DialContext(context.Background(), params)
			if err != nil {
				t.Error(err)
				return
			}
			defer cc.Close()
			for r := 0; r < rounds; r++ {
				queries := []string{
					fmt.Sprintf(`INSERT INTO load VALUES (%d, %d.5)`, r, w),
					`SELECT COUNT(*) AS n FROM load WHERE i >= 0`,
					`SELECT double_it(i) AS d FROM load WHERE i >= 0`,
				}
				for _, sql := range queries {
					if _, _, err := cc.Query(context.Background(), sql); err != nil {
						t.Errorf("%s: %v", sql, err)
						return
					}
				}
			}
			// A statement is accounted after its reply is written but before
			// the connection's next one starts: wait for one more reply so
			// the scrape below sees all of this worker's rounds.
			if _, _, err := cc.Query(context.Background(), `SELECT 1 AS settled`); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	resp, err := http.Get("http://" + maddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	sc, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition did not re-parse: %v", err)
	}

	// Query latency histogram: cumulative buckets ending in +Inf, with the
	// count line agreeing with the terminal bucket.
	buckets := sc.HistogramBuckets("wire_query_seconds", nil)
	if len(buckets) < 2 {
		t.Fatalf("wire_query_seconds buckets = %d", len(buckets))
	}
	last := float64(-1)
	for _, b := range buckets {
		if b.Value < last {
			t.Fatalf("buckets not cumulative: %v", buckets)
		}
		last = b.Value
	}
	if le := buckets[len(buckets)-1].Labels["le"]; le != "+Inf" {
		t.Fatalf("terminal bucket le = %q", le)
	}
	count, ok := sc.Get("wire_query_seconds_count", nil)
	if !ok || count.Value != buckets[len(buckets)-1].Value {
		t.Fatalf("count %v vs +Inf bucket %v", count.Value, buckets[len(buckets)-1].Value)
	}
	minQueries := float64(workers * rounds * 3)
	if count.Value < minQueries {
		t.Fatalf("wire_query_seconds_count = %v, want >= %v", count.Value, minQueries)
	}

	// WAL fsync histogram: SyncAlways means every INSERT fsynced.
	fsyncs, ok := sc.Get("wal_fsync_seconds_count", nil)
	if !ok || fsyncs.Value < float64(workers*rounds) {
		t.Fatalf("wal_fsync_seconds_count = %v %v", fsyncs.Value, ok)
	}
	if appends, ok := sc.Get("wal_appends_total", nil); !ok || appends.Value < float64(workers*rounds) {
		t.Fatalf("wal_appends_total = %v %v", appends.Value, ok)
	}

	// Plan cache: the repeated SELECTs must produce hits; the distinct
	// INSERT texts produce misses.
	hits, ok := sc.Get("engine_plan_cache_hits_total", nil)
	if !ok || hits.Value < 1 {
		t.Fatalf("engine_plan_cache_hits_total = %v %v", hits.Value, ok)
	}
	misses, ok := sc.Get("engine_plan_cache_misses_total", nil)
	if !ok || misses.Value < 1 {
		t.Fatalf("engine_plan_cache_misses_total = %v %v", misses.Value, ok)
	}

	// UDF runtime series, labeled by runtime.
	if calls, ok := sc.Get("udf_calls_total", map[string]string{"runtime": "python"}); !ok || calls.Value < float64(workers*rounds) {
		t.Fatalf("udf_calls_total{runtime=python} = %v %v", calls.Value, ok)
	}

	// The same spans back the sys.query_log virtual table.
	cc, err := monetlite.DialContext(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	_, tbl, err := cc.Query(context.Background(), `SELECT query, total_ms FROM sys.query_log`)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() < 1 {
		t.Fatal("sys.query_log empty after load")
	}
}

package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/monetlite"
)

// TestScrapeSmoke is the end-to-end observability smoke CI runs on its own:
// build the daemon, start it durable with the metrics listener on, push
// traffic through every instrumented subsystem (wire queries, WAL-committed
// INSERTs, a PYTHON UDF, the plan cache), scrape /metrics over real HTTP and
// require a series from each subsystem; then SIGTERM it and require that the
// graceful drain took the metrics listener down too. Both listeners bind
// port 0, so it needs nothing but loopback.
func TestScrapeSmoke(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "monetlited")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	logPath := filepath.Join(dir, "daemon.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	daemon := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", filepath.Join(dir, "data"),
		"-metrics-addr", "127.0.0.1:0", "-slow-query-ms", "500")
	daemon.Stdout, daemon.Stderr = logFile, logFile
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- daemon.Wait() }()
	t.Cleanup(func() {
		if t.Failed() {
			log, _ := os.ReadFile(logPath)
			t.Logf("daemon log:\n%s", log)
		}
		_ = daemon.Process.Kill() // a no-op once it has exited
	})

	// The daemon announces both bound addresses once it serves.
	serving := regexp.MustCompile(`serving database "demo" on (\S+):(\d+) `)
	metricsOn := regexp.MustCompile(`metrics on http://(\S+)/metrics`)
	var params monetlite.ConnParams
	var maddr string
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		log, _ := os.ReadFile(logPath)
		s, m := serving.FindSubmatch(log), metricsOn.FindSubmatch(log)
		if s != nil && m != nil {
			port, _ := strconv.Atoi(string(s[2]))
			params = monetlite.ConnParams{Host: string(s[1]), Port: port, Database: "demo", User: "monetdb", Password: "monetdb"}
			maddr = string(m[1])
			break
		}
		select {
		case err := <-exited:
			t.Fatalf("daemon exited before serving: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon did not announce its listeners")
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c, err := monetlite.DialContext(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	statements := []string{
		`CREATE TABLE obs_smoke (i INTEGER, s STRING)`,
		`CREATE FUNCTION double_it(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    out = []
    for v in i:
        out.append(v * 2)
    return out
}`,
	}
	for i := 1; i <= 25; i++ {
		statements = append(statements, fmt.Sprintf(`INSERT INTO obs_smoke VALUES (%d, 'row%d')`, i, i))
	}
	statements = append(statements,
		`SELECT COUNT(*), SUM(double_it(i)) FROM obs_smoke WHERE i > 3`,
		`SELECT COUNT(*), SUM(double_it(i)) FROM obs_smoke WHERE i > 3`, // a plan-cache hit
		`SELECT seq, usr, total_ms FROM sys.query_log`)
	for _, sql := range statements {
		if _, _, err := c.Query(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}

	resp, err := http.Get("http://" + maddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := obs.ParseText(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d, %v", resp.StatusCode, err)
	}
	for _, series := range []string{
		"wire_connections_opened_total", "wire_messages_total", "wire_query_seconds_bucket",
		"engine_plan_cache_hits_total", "engine_plan_cache_misses_total", "engine_rows_scanned_total",
		"udf_calls_total", "wal_appends_total", "wal_fsync_seconds_bucket", "wal_segments",
	} {
		if _, ok := scrape.Get(series, nil); !ok {
			t.Errorf("missing series: %s", series)
		}
	}
	if resp, err := http.Get("http://" + maddr + "/debug/pprof/cmdline"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: %v", err)
	} else {
		resp.Body.Close()
	}

	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit within 30s of SIGTERM")
	}
	if nc, err := net.DialTimeout("tcp", maddr, time.Second); err == nil {
		nc.Close()
		t.Fatal("metrics listener survived the graceful drain")
	}
}

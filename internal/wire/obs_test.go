package wire

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
)

// startObsServer is startTestServer with a registry wired in before the
// listener starts (EnableObs must precede Listen).
func startObsServer(t *testing.T, configure func(*Server)) (*obs.Registry, *Server, ConnParams) {
	t.Helper()
	db := engine.NewDB()
	db.FS = core.NewMemFS(nil)
	reg := obs.NewRegistry()
	db.EnableObs(reg)
	srv := NewServer("demo", "monetdb", "secret", db)
	srv.EnableObs(reg)
	if configure != nil {
		configure(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	host, portStr, _ := splitHostPort(addr)
	return reg, srv, ConnParams{Host: host, Port: portStr, Database: "demo", User: "monetdb", Password: "secret"}
}

// settle returns once every statement already answered on c has been
// accounted for (histogram, query log, slow-query line): the server records
// a statement after writing its reply, but before starting the next one on
// the same connection — respondTraced's contract.
func settle(t *testing.T, c *Client) {
	t.Helper()
	if _, _, err := c.Query(background(), `SELECT 1 AS settled`); err != nil {
		t.Fatal(err)
	}
}

func scrapeReg(t *testing.T, reg *obs.Registry) *obs.Scrape {
	t.Helper()
	var b strings.Builder
	reg.WritePrometheus(&b)
	sc, err := obs.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition did not re-parse: %v\n%s", err, b.String())
	}
	return sc
}

func mustValue(t *testing.T, sc *obs.Scrape, name string, labels map[string]string) float64 {
	t.Helper()
	sm, ok := sc.Get(name, labels)
	if !ok {
		t.Fatalf("missing series %s %v", name, labels)
	}
	return sm.Value
}

func TestServerMetricsEndToEnd(t *testing.T) {
	reg, _, params := startObsServer(t, nil)
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sql := range []string{
		`CREATE TABLE t (i INTEGER)`,
		`INSERT INTO t VALUES (1), (2), (3)`,
		`SELECT SUM(i) AS s FROM t`,
	} {
		if _, _, err := c.Query(background(), sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	settle(t, c)
	sc := scrapeReg(t, reg)
	if v := mustValue(t, sc, "wire_connections_opened_total", nil); v < 1 {
		t.Fatalf("wire_connections_opened_total = %v", v)
	}
	if v := mustValue(t, sc, "wire_connections_active", nil); v < 1 {
		t.Fatalf("wire_connections_active = %v (client still connected)", v)
	}
	if v := mustValue(t, sc, "wire_messages_total", map[string]string{"type": "query"}); v < 3 {
		t.Fatalf("wire_messages_total{type=query} = %v", v)
	}
	if v := mustValue(t, sc, "wire_messages_total", map[string]string{"type": "auth"}); v < 1 {
		t.Fatalf("wire_messages_total{type=auth} = %v", v)
	}
	for _, name := range []string{"wire_bytes_read_total", "wire_bytes_written_total"} {
		if v := mustValue(t, sc, name, nil); v <= 0 {
			t.Fatalf("%s = %v", name, v)
		}
	}
	if v := mustValue(t, sc, "wire_query_seconds_count", nil); v < 3 {
		t.Fatalf("wire_query_seconds_count = %v", v)
	}
	// the engine series registered alongside must move through the wire path
	if v := mustValue(t, sc, "engine_rows_returned_total", nil); v < 1 {
		t.Fatalf("engine_rows_returned_total = %v", v)
	}
}

// TestStmtRejectionCounter: a statement-table-full rejection, previously
// only visible as a client error, must increment its counter.
func TestStmtRejectionCounter(t *testing.T) {
	reg, _, params := startObsServer(t, nil)
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < maxStmtsPerConn; i++ {
		if _, err := c.Prepare(background(), fmt.Sprintf(`SELECT 1 AS a%d`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if v := mustValue(t, scrapeReg(t, reg), "wire_stmt_rejections_total", nil); v != 0 {
		t.Fatalf("rejections before the bound = %v", v)
	}
	if _, err := c.Prepare(background(), `SELECT 2 AS b`); err == nil ||
		!strings.Contains(err.Error(), "full") {
		t.Fatalf("expected table-full error, got %v", err)
	}
	if v := mustValue(t, scrapeReg(t, reg), "wire_stmt_rejections_total", nil); v != 1 {
		t.Fatalf("wire_stmt_rejections_total = %v", v)
	}
}

// TestAccountingVisibleToNextStatement proves the ordering half of
// respondTraced's contract from inside the server: a statement that reads
// sys.query_log always finds the statement answered just before it on the
// same connection, however quickly the client sends it.
func TestAccountingVisibleToNextStatement(t *testing.T) {
	_, srv, params := startObsServer(t, nil)
	srv.DB.QueryLog = obs.NewQueryLog(16)
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 200; i++ {
		marker := fmt.Sprintf(`SELECT %d AS marker`, i)
		if _, _, err := c.Query(background(), marker); err != nil {
			t.Fatal(err)
		}
		_, tbl, err := c.Query(background(), `SELECT query FROM sys.query_log`)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, q := range tbl.Cols[0].Strs {
			found = found || q == marker
		}
		if !found {
			t.Fatalf("statement %d answered but not in the log its successor read: %q", i, tbl.Cols[0].Strs)
		}
	}
}

// TestSlowQueryLogLine: a query past the threshold produces one
// structured line carrying the per-stage breakdown. nap is sized in
// interpreter steps, not seconds: 600k steps are tens of milliseconds
// against the 1 ms threshold, whatever the interpreter's speed.
func TestSlowQueryLogLine(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	_, srv, params := startObsServer(t, func(s *Server) {
		s.SlowQueryMs = 1
	})
	srv.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sql := range []string{
		`CREATE TABLE t (i INTEGER)`,
		`INSERT INTO t VALUES (1), (2), (3)`,
		`CREATE FUNCTION nap(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    s = 0
    for k in range(0, 300000):
        s += k
    return i
}`,
	} {
		if _, _, err := c.Query(background(), sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if _, _, err := c.Query(background(), `SELECT nap(i) AS n FROM t`); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	mu.Lock()
	defer mu.Unlock()
	var slow string
	for _, l := range lines {
		if strings.Contains(l, "slow query:") && strings.Contains(l, "nap(i)") {
			slow = l
		}
	}
	if slow == "" {
		t.Fatalf("no slow-query line for the UDF query in %q", lines)
	}
	for _, want := range []string{
		"user=monetdb", "total_ms=", "parse_ms=", "bind_ms=", "exec_ms=",
		"udf_ms=", "wal_ms=", "write_ms=", "rows=3", "cache_hit=false",
		`query="SELECT nap(i) AS n FROM t"`,
	} {
		if !strings.Contains(slow, want) {
			t.Fatalf("slow-query line missing %q: %s", want, slow)
		}
	}
	if strings.Contains(slow, "udf_ms=0.000") {
		t.Fatalf("udf span should be nonzero for a sleeping UDF: %s", slow)
	}
}

// TestQueryLogOverWire: the server feeds the engine's query-log ring, and
// sys.query_log is queryable over the same wire.
func TestQueryLogOverWire(t *testing.T) {
	_, srv, params := startObsServer(t, nil)
	srv.DB.QueryLog = obs.NewQueryLog(16)
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Query(background(), `CREATE TABLE t (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(background(), `SELECT i FROM t`); err != nil {
		t.Fatal(err)
	}
	_, tbl, err := c.Query(background(), `SELECT usr, query FROM sys.query_log`)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() < 2 {
		t.Fatalf("query log rows = %d", tbl.NumRows())
	}
	found := false
	for r := 0; r < tbl.NumRows(); r++ {
		if tbl.Cols[1].Strs[r] == `SELECT i FROM t` && tbl.Cols[0].Strs[r] == "monetdb" {
			found = true
		}
	}
	if !found {
		t.Fatalf("SELECT not recorded in sys.query_log")
	}
}

// TestPoolObsAndReprepares: pool gauges register and the churn-forced
// re-prepare is counted (the eager prepare is not).
func TestPoolObsAndReprepares(t *testing.T) {
	_, params := preparedFixture(t)
	pool := NewPool(params, 1)
	defer pool.Close()
	reg := obs.NewRegistry()
	pool.RegisterObs(reg)
	ps, err := pool.Prepare(background(), `SELECT count(*) AS n FROM nums WHERE i > ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ps.Query(background(), int64(1)); err != nil {
		t.Fatal(err)
	}
	if got := pool.StatsSnapshot().Reprepares; got != 0 {
		t.Fatalf("eager prepare must not count as a re-prepare: %d", got)
	}
	// kill the pool's only connection behind the stmt's back
	c, err := pool.Get(background())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	pool.Put(c)
	if _, _, err := ps.Query(background(), int64(2)); err != nil {
		t.Fatal(err)
	}
	st := pool.StatsSnapshot()
	if st.Reprepares != 1 {
		t.Fatalf("Reprepares = %d, want 1", st.Reprepares)
	}
	if st.HealthCheckFailures < 1 {
		t.Fatalf("HealthCheckFailures = %d, want >= 1", st.HealthCheckFailures)
	}
	if st.Discards < st.HealthCheckFailures {
		t.Fatalf("health failures (%d) must be a subset of discards (%d)", st.HealthCheckFailures, st.Discards)
	}
	sc := scrapeReg(t, reg)
	if v := mustValue(t, sc, "pool_reprepares_total", nil); v != 1 {
		t.Fatalf("pool_reprepares_total = %v", v)
	}
	if v := mustValue(t, sc, "pool_size", nil); v != 1 {
		t.Fatalf("pool_size = %v", v)
	}
	if v := mustValue(t, sc, "pool_dials_total", nil); v < 2 {
		t.Fatalf("pool_dials_total = %v", v)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
}

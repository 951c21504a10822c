package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
)

func scrape(t *testing.T, reg *obs.Registry) *obs.Scrape {
	t.Helper()
	var b strings.Builder
	reg.WritePrometheus(&b)
	sc, err := obs.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition does not re-parse: %v\n%s", err, b.String())
	}
	return sc
}

// TestEngineMetrics drives a few statements through an instrumented DB
// and checks plan cache, row, and UDF series move as expected.
func TestEngineMetrics(t *testing.T) {
	c := prepTestDB(t)
	reg := obs.NewRegistry()
	c.DB.EnableObs(reg)

	const q = `SELECT i FROM nums WHERE i > 1`
	for i := 0; i < 3; i++ {
		if _, err := c.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Exec(`SELECT plus_one(i) FROM nums WHERE i > 0`); err != nil {
		t.Fatal(err)
	}

	sc := scrape(t, reg)
	if hits := sc.Value("engine_plan_cache_hits_total", nil); hits < 2 {
		t.Errorf("plan cache hits = %v, want >= 2", hits)
	}
	if misses := sc.Value("engine_plan_cache_misses_total", nil); misses < 2 {
		t.Errorf("plan cache misses = %v, want >= 2", misses)
	}
	if entries := sc.Value("engine_plan_cache_entries", nil); entries < 1 {
		t.Errorf("plan cache entries = %v, want >= 1", entries)
	}
	// nums has 5 rows; four SELECTs scanned it.
	if scanned := sc.Value("engine_rows_scanned_total", nil); scanned < 20 {
		t.Errorf("rows scanned = %v, want >= 20", scanned)
	}
	if returned := sc.Value("engine_rows_returned_total", nil); returned < 9 {
		t.Errorf("rows returned = %v, want >= 9", returned)
	}
	py := map[string]string{"runtime": "python"}
	if calls := sc.Value("udf_calls_total", py); calls < 1 {
		t.Errorf("udf calls = %v, want >= 1", calls)
	}
	if rows := sc.Value("udf_batch_rows_total", py); rows < 4 {
		t.Errorf("udf batch rows = %v, want >= 4", rows)
	}
	if cnt := sc.Value("udf_call_seconds_count", py); cnt < 1 {
		t.Errorf("udf latency count = %v, want >= 1", cnt)
	}
	if errs := sc.Value("udf_errors_total", py); errs != 0 {
		t.Errorf("udf errors = %v, want 0", errs)
	}

	// A failing UDF increments the error counter.
	if _, err := c.Exec(`CREATE FUNCTION boom(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
		return x[100000]
	}`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`SELECT boom(i) FROM nums`); err == nil {
		t.Fatal("expected boom() to fail")
	}
	if errs := scrape(t, reg).Value("udf_errors_total", py); errs < 1 {
		t.Errorf("udf errors = %v, want >= 1 after failing call", errs)
	}
}

// TestPlanCacheEvictionCounter pins the new eviction counter against the
// LRU bound. The aliases differ, so each text is a shape of its own; the
// setup statements' plans are cached too, and go first.
func TestPlanCacheEvictionCounter(t *testing.T) {
	c := prepTestDB(t)
	base := c.DB.PlanCacheStatsSnapshot()
	n := planCacheSize + 10
	for i := 0; i < n; i++ {
		if _, err := c.Exec(fmt.Sprintf(`SELECT 1 AS v%d`, i)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.DB.PlanCacheStatsSnapshot()
	if got, want := st.Evictions-base.Evictions, uint64(base.Entries+n-planCacheSize); got != want {
		t.Errorf("evictions = %d, want %d (%d cached + %d plans through a %d-entry cache)", got, want, base.Entries, n, planCacheSize)
	}
}

// TestExecContextTrace checks a statement reports spans into the trace its
// ExecOpts carry: exec always, parse only on a cache miss, WAL when a
// commit hook is installed.
func TestExecContextTrace(t *testing.T) {
	c := prepTestDB(t)
	committed := 0
	c.DB.SetPersistence(func(Change) error { committed++; return nil }, nil)

	tr := obs.NewTrace(`INSERT INTO nums VALUES (9, 9.5, 'z')`, "monetdb")
	if _, err := c.ExecWith(ExecOpts{Trace: tr}, tr.Query); err != nil {
		t.Fatal(err)
	}
	if committed != 1 {
		t.Fatalf("commit hook ran %d times, want 1", committed)
	}
	if tr.Stage(obs.StageExec) <= 0 {
		t.Error("exec span not recorded")
	}
	if tr.Stage(obs.StageParse) <= 0 {
		t.Error("parse span not recorded on a cache miss")
	}
	if tr.Stage(obs.StageWAL) <= 0 {
		t.Error("wal span not recorded despite a commit hook")
	}
	if tr.CacheHit {
		t.Error("first execution must not report a cache hit")
	}

	tr2 := obs.NewTrace(tr.Query, "monetdb")
	if _, err := c.ExecWith(ExecOpts{Trace: tr2}, tr2.Query); err != nil {
		t.Fatal(err)
	}
	if !tr2.CacheHit {
		t.Error("second execution should hit the plan cache")
	}
	if tr2.Stage(obs.StageParse) != 0 {
		t.Error("cache hit must not report parse time")
	}
}

// TestCommitVetoCounter: a refused WAL append rolls the statement back
// AND increments engine_commit_vetoes_total — the previously silent
// rejection the satellite task wants visible.
func TestCommitVetoCounter(t *testing.T) {
	c := prepTestDB(t)
	reg := obs.NewRegistry()
	c.DB.EnableObs(reg)
	veto := errors.New("disk full")
	c.DB.SetPersistence(func(Change) error { return veto }, nil)

	if _, err := c.Exec(`INSERT INTO nums VALUES (7, 7.5, 'y')`); err == nil {
		t.Fatal("vetoed insert should fail")
	}
	if _, err := c.Exec(`CREATE TABLE vetoed (x INTEGER)`); err == nil {
		t.Fatal("vetoed create should fail")
	}
	if got := scrape(t, reg).Value("engine_commit_vetoes_total", nil); got != 2 {
		t.Errorf("commit vetoes = %v, want 2", got)
	}
	// The rollback must have kept the catalog clean.
	c.DB.SetPersistence(nil, nil)
	res, err := c.Exec(`SELECT i FROM nums WHERE i = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 0 {
		t.Error("vetoed insert left rows behind")
	}
}

// TestStmtExecContextBindSpan: prepared execution reports the bind span
// and marks executions as plan reuse.
func TestStmtExecContextBindSpan(t *testing.T) {
	c := prepTestDB(t)
	st, err := c.Prepare(`SELECT i FROM nums WHERE i > ?`)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(st.SQL(), "monetdb")
	res, err := st.ExecWith(ExecOpts{Trace: tr}, int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", res.Table.NumRows())
	}
	if tr.Stage(obs.StageBind) <= 0 {
		t.Error("bind span not recorded")
	}
	if tr.Stage(obs.StageExec) <= 0 {
		t.Error("exec span not recorded")
	}
	if !tr.CacheHit {
		t.Error("prepared execution should count as plan reuse")
	}
}

// TestQueryLogVirtualTable: sys.query_log materializes the DB's query
// log ring, empty-but-queryable when no log is configured.
func TestQueryLogVirtualTable(t *testing.T) {
	c := prepTestDB(t)

	res, err := c.Exec(`SELECT * FROM sys.query_log`)
	if err != nil {
		t.Fatalf("sys.query_log without a log: %v", err)
	}
	if res.Table.NumRows() != 0 {
		t.Fatalf("unconfigured query log should be empty, got %d rows", res.Table.NumRows())
	}

	c.DB.QueryLog = obs.NewQueryLog(8)
	tr := obs.NewTrace(`SELECT 1 AS one`, "monetdb")
	tr.Rows = 1
	tr.CacheHit = true
	tr.AddStage(obs.StageExec, 2e6)
	tr.AddStage(obs.StageUDF, 1e6)
	c.DB.QueryLog.Record(tr, 5e6)

	res, err = c.Exec(`SELECT usr, query, rows, cache_hit, total_ms, exec_ms, udf_ms FROM sys.query_log`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 1 {
		t.Fatalf("query log rows = %d, want 1", res.Table.NumRows())
	}
	row := map[string]any{}
	for _, col := range res.Table.Cols {
		row[col.Name] = col.Value(0)
	}
	if row["usr"] != "monetdb" || row["query"] != `SELECT 1 AS one` {
		t.Errorf("unexpected identity columns: %+v", row)
	}
	if row["rows"] != int64(1) || row["cache_hit"] != true {
		t.Errorf("unexpected rows/cache_hit: %+v", row)
	}
	if row["total_ms"] != 5.0 || row["exec_ms"] != 2.0 || row["udf_ms"] != 1.0 {
		t.Errorf("unexpected span columns: %+v", row)
	}

	// The log is filterable like any table.
	res, err = c.Exec(`SELECT seq FROM sys.query_log WHERE total_ms > 1.0`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 1 {
		t.Errorf("filtered query log rows = %d, want 1", res.Table.NumRows())
	}
}

// TestMorselStatsExposed: a parallel kernel run moves the vec counters
// through the engine registry.
func TestMorselStatsExposed(t *testing.T) {
	db := NewDB()
	db.Workers = 4
	db.MorselSize = 1024
	reg := obs.NewRegistry()
	db.EnableObs(reg)
	c := &Conn{DB: db, User: "monetdb"}

	tbl := storage.NewTable("big", storage.Schema{{Name: "i", Type: storage.TInt}})
	for i := 0; i < 100_000; i++ {
		if err := tbl.AppendRow([]any{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	before := scrape(t, reg).Value("engine_morsels_total", nil)
	if _, err := c.Exec(`SELECT count(*) AS n FROM big WHERE i % 2 = 0`); err != nil {
		t.Fatal(err)
	}
	after := scrape(t, reg)
	if got := after.Value("engine_morsels_total", nil); got <= before {
		t.Errorf("morsels total did not move: %v -> %v", before, got)
	}
	if runs := after.Value("engine_morsel_parallel_runs_total", nil) + after.Value("engine_morsel_inline_runs_total", nil); runs < 1 {
		t.Errorf("no kernel runs recorded")
	}
}

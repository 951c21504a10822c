package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
)

func prepTestDB(t testing.TB) *Conn {
	t.Helper()
	db := NewDB()
	c := &Conn{DB: db, User: "monetdb", Password: "monetdb"}
	script := []string{
		`CREATE TABLE nums (i INTEGER, f DOUBLE, s STRING)`,
		`INSERT INTO nums VALUES (1, 0.5, 'a'), (2, 1.5, 'b'), (3, 2.5, 'c'), (4, 3.5, 'a'), (NULL, NULL, NULL)`,
		`CREATE FUNCTION plus_one(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
			out = []
			for v in x:
			    out.append(v + 1)
			return out
		}`,
	}
	for _, sql := range script {
		if _, err := c.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	return c
}

// fmtLit renders a bind value as a SQL literal, for the differential side.
func fmtLit(v any) string {
	switch v := v.(type) {
	case nil:
		return "NULL"
	case string:
		return "'" + strings.ReplaceAll(v, "'", "''") + "'"
	default:
		return fmt.Sprint(v)
	}
}

// TestPrepareDifferential pins the tentpole acceptance: a query prepared
// once and executed with several bind sets returns results identical to
// the equivalent literal-substituted Query calls, and to what the
// refSelect oracle computes from the same text and binds.
func TestPrepareDifferential(t *testing.T) {
	queries := []struct {
		param string // with placeholders
		subst string // with %s slots for literals
		binds [][]any
	}{
		{
			`SELECT i, f FROM nums WHERE i > ? AND f < ?`,
			`SELECT i, f FROM nums WHERE i > %s AND f < %s`,
			[][]any{{int64(1), 3.0}, {int64(2), 9.9}, {int64(0), 0.6}},
		},
		{
			`SELECT plus_one(i) AS p FROM nums WHERE i <> $1 ORDER BY p DESC`,
			`SELECT plus_one(i) AS p FROM nums WHERE i <> %s ORDER BY p DESC`,
			[][]any{{int64(2)}, {int64(3)}, {int64(100)}},
		},
		{
			`SELECT s, count(*) AS n FROM nums WHERE s <> ? GROUP BY s HAVING count(*) >= ? ORDER BY s`,
			`SELECT s, count(*) AS n FROM nums WHERE s <> %s GROUP BY s HAVING count(*) >= %s ORDER BY s`,
			[][]any{{"b", int64(1)}, {"zz", int64(2)}, {"a", int64(1)}},
		},
		{
			`SELECT ? + i AS a, ? AS b, abs(? - f) AS c FROM nums`,
			`SELECT %s + i AS a, %s AS b, abs(%s - f) AS c FROM nums`,
			[][]any{
				{int64(10), "tag", 1.5},
				{int64(-1), "other", 0.0},
				{int64(0), "x", 9.25},
			},
		},
	}
	c := prepTestDB(t)
	for _, q := range queries {
		stmt, err := c.Prepare(q.param)
		if err != nil {
			t.Fatalf("prepare %s: %v", q.param, err)
		}
		for _, binds := range q.binds {
			got, err := stmt.Query(binds...)
			if err != nil {
				t.Fatalf("%s binds %v: %v", q.param, binds, err)
			}
			lits := make([]any, len(binds))
			for i, b := range binds {
				lits[i] = fmtLit(b)
			}
			sql := fmt.Sprintf(q.subst, lits...)
			want, err := c.Exec(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if got.Msg != want.Msg {
				t.Fatalf("%s binds %v: msg %q vs %q", q.param, binds, got.Msg, want.Msg)
			}
			assertTablesEqual(t, q.param, got.Table, want.Table)
			ref, err := refExec(c, q.param, binds...)
			if err != nil {
				t.Fatalf("oracle %s binds %v: %v", q.param, binds, err)
			}
			assertTablesEqual(t, "oracle "+q.param, got.Table, ref)
		}
	}
}

func assertTablesEqual(t *testing.T, label string, got, want *storage.Table) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: table presence differs", label)
	}
	if got == nil {
		return
	}
	if len(got.Cols) != len(want.Cols) || got.NumRows() != want.NumRows() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", label,
			got.NumRows(), len(got.Cols), want.NumRows(), len(want.Cols))
	}
	for ci := range got.Cols {
		g, w := got.Cols[ci], want.Cols[ci]
		if g.Name != w.Name || g.Typ != w.Typ {
			t.Fatalf("%s: column %d is %s %s vs %s %s", label, ci, g.Name, g.Typ, w.Name, w.Typ)
		}
		for r := 0; r < g.Len(); r++ {
			if g.IsNull(r) != w.IsNull(r) {
				t.Fatalf("%s: row %d col %s null mismatch", label, r, g.Name)
			}
			if !g.IsNull(r) && g.FormatValue(r) != w.FormatValue(r) {
				t.Fatalf("%s: row %d col %s: %s vs %s", label, r, g.Name, g.FormatValue(r), w.FormatValue(r))
			}
		}
	}
}

// TestPrepareInsertAndReuse pins parameterized INSERT plus slot typing:
// the first bind fixes each slot's type, later binds are re-checked
// (INTEGER widens into DOUBLE; DOUBLE into INTEGER is rejected).
func TestPrepareInsertAndReuse(t *testing.T) {
	c := prepTestDB(t)
	ins, err := c.Prepare(`INSERT INTO nums VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 3 {
		t.Fatalf("NumParams = %d", ins.NumParams())
	}
	if _, err := ins.Exec(int64(10), 10.5, "x"); err != nil {
		t.Fatal(err)
	}
	// INTEGER widens into the DOUBLE slot; NULL binds anywhere
	if _, err := ins.Exec(int64(11), int64(11), nil); err != nil {
		t.Fatal(err)
	}
	// re-check: a STRING into the INTEGER slot is rejected
	if _, err := ins.Exec("nope", 1.0, "y"); err == nil || !strings.Contains(err.Error(), "typed at first bind") {
		t.Fatalf("expected slot type error, got %v", err)
	}
	// wrong arity is rejected before execution
	if _, err := ins.Exec(int64(1)); err == nil || !strings.Contains(err.Error(), "expects 3") {
		t.Fatalf("expected arity error, got %v", err)
	}
	res, err := c.Exec(`SELECT count(*) AS n FROM nums WHERE i >= 10`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Table.Cols[0].Ints[0]; n != 2 {
		t.Fatalf("expected 2 inserted rows, got %d", n)
	}
}

// TestPreparedBlobBindCopies: a bound []byte must be copied at bind time —
// a caller reusing its buffer across executions (the chunked-insert loop)
// must not retroactively rewrite stored rows.
func TestPreparedBlobBindCopies(t *testing.T) {
	c := prepTestDB(t)
	if _, err := c.Exec(`CREATE TABLE blobs (b BLOB)`); err != nil {
		t.Fatal(err)
	}
	ins, err := c.Prepare(`INSERT INTO blobs VALUES (?)`)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("first")
	if _, err := ins.Exec(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXX") // caller reuses its buffer
	if _, err := ins.Exec(buf); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(`SELECT b FROM blobs`)
	if err != nil {
		t.Fatal(err)
	}
	col := res.Table.Cols[0]
	if string(col.Blobs[0]) != "first" || string(col.Blobs[1]) != "XXXXX" {
		t.Fatalf("blob bind aliased the caller's buffer: %q %q", col.Blobs[0], col.Blobs[1])
	}
}

// TestUnpreparedPlaceholderRejected: a parameterized statement cannot run
// through the plain Query path.
func TestUnpreparedPlaceholderRejected(t *testing.T) {
	c := prepTestDB(t)
	_, err := c.Exec(`SELECT i FROM nums WHERE i = ?`)
	if err == nil || !strings.Contains(err.Error(), "Prepare") {
		t.Fatalf("expected bind-parameter error, got %v", err)
	}
}

// TestPlanCacheHitsAndInvalidation pins the DB plan cache: identical text
// hits, and DDL of every flavor (table, function, Go-UDF re-registration,
// bulk table registration) leaves the cached plans in place.
func TestPlanCacheHitsAndInvalidation(t *testing.T) {
	c := prepTestDB(t)
	db := c.DB
	base := db.PlanCacheStatsSnapshot()

	const q = `SELECT i FROM nums WHERE i > 1`
	for i := 0; i < 5; i++ {
		if _, err := c.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	// normalization: whitespace and trailing semicolons share the plan
	if _, err := c.Exec("  " + q + " ;\n"); err != nil {
		t.Fatal(err)
	}
	st := db.PlanCacheStatsSnapshot()
	if hits := st.Hits - base.Hits; hits != 5 {
		t.Fatalf("expected 5 cache hits, got %d", hits)
	}

	// DDL keeps the cache: the next run of q is a hit
	checks := []func() error{
		func() error { _, err := c.Exec(`CREATE TABLE flush1 (x INTEGER)`); return err },
		func() error { _, err := c.Exec(`DROP TABLE flush1`); return err },
		func() error {
			_, err := c.Exec(`CREATE OR REPLACE FUNCTION plus_one(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
				return x + 2
			}`)
			return err
		},
		func() error { _, err := c.Exec(`DROP FUNCTION plus_one`); return err },
		func() error { return db.RegisterGoUDF("cache_probe", func(x []int64) []int64 { return x }) },
		func() error {
			return db.RegisterTable(storage.NewTable("flush2", storage.Schema{{Name: "x", Type: storage.TInt}}))
		},
	}
	for i, ddl := range checks {
		if _, err := c.Exec(q); err != nil { // warm
			t.Fatal(err)
		}
		if err := ddl(); err != nil {
			t.Fatalf("ddl %d: %v", i, err)
		}
		before := db.PlanCacheStatsSnapshot()
		if before.Entries == 0 {
			t.Fatalf("ddl %d: cache emptied", i)
		}
		if _, err := c.Exec(q); err != nil {
			t.Fatal(err)
		}
		after := db.PlanCacheStatsSnapshot()
		if after.Hits != before.Hits+1 || after.Misses != before.Misses {
			t.Fatalf("ddl %d: expected the cached plan to serve the next run", i)
		}
	}
}

// TestCachedPlanSurvivesDDL: a plan is the parsed statement, and parsing
// reads no catalog, so a catalog change keeps the cache, and a cached plan
// run after the change reads the new catalog.
func TestCachedPlanSurvivesDDL(t *testing.T) {
	c := newTestConn()
	for _, sql := range []string{
		`CREATE TABLE t (i INTEGER)`,
		`INSERT INTO t VALUES (1), (2), (3)`,
		`CREATE FUNCTION f(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return [v * 2 for v in x]
}`,
		`SELECT i FROM t WHERE i > 1`,
		`SELECT f(i) AS v FROM t WHERE i > 1`,
	} {
		mustExec(t, c, sql)
	}
	for _, sql := range []string{
		`DROP TABLE t`,
		`CREATE TABLE t (i DOUBLE)`,
		`INSERT INTO t VALUES (1.5), (2.5)`,
		`CREATE OR REPLACE FUNCTION f(x DOUBLE) RETURNS DOUBLE LANGUAGE PYTHON {
    return [v * 10 for v in x]
}`,
	} {
		mustExec(t, c, sql)
	}
	for _, q := range []struct {
		sql  string
		want float64
	}{
		{`SELECT i FROM t WHERE i > 2`, 2.5},
		{`SELECT f(i) AS v FROM t WHERE i > 2`, 25},
	} {
		before := c.DB.PlanCacheStatsSnapshot()
		r := mustExec(t, c, q.sql)
		after := c.DB.PlanCacheStatsSnapshot()
		if after.Hits != before.Hits+1 || after.Misses != before.Misses {
			t.Errorf("%s: want a cache hit after the DDL, got %d hit(s) and %d miss(es)",
				q.sql, after.Hits-before.Hits, after.Misses-before.Misses)
		}
		col := r.Table.Cols[0]
		if col.Typ != storage.TFloat || col.Len() != 1 || col.Flts[0] != q.want {
			t.Errorf("%s: got %s %v, want DOUBLE [%v] from the new catalog", q.sql, col.Typ, col.Flts, q.want)
		}
	}
}

// TestPlanCacheBound pins the LRU bound: the cache never exceeds
// planCacheSize entries and evicts the least recently used shape (the
// aliases differ, so each text is a shape of its own).
func TestPlanCacheBound(t *testing.T) {
	c := prepTestDB(t)
	n := planCacheSize + 16
	for i := 0; i < n; i++ {
		if _, err := c.Exec(fmt.Sprintf(`SELECT %d AS v%d`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.DB.PlanCacheStatsSnapshot(); st.Entries > planCacheSize {
		t.Fatalf("cache grew past its bound: %d entries", st.Entries)
	}
	// the most recent shape must still hit
	before := c.DB.PlanCacheStatsSnapshot()
	if _, err := c.Exec(fmt.Sprintf(`SELECT 7 AS v%d`, n-1)); err != nil {
		t.Fatal(err)
	}
	if st := c.DB.PlanCacheStatsSnapshot(); st.Hits != before.Hits+1 {
		t.Fatal("most recent entry was evicted")
	}
}

// TestPreparedFusedFilter: a bound placeholder in a col-vs-const conjunct
// must still produce correct results through the fused compare-select
// path, including alongside literal conjuncts.
func TestPreparedFusedFilter(t *testing.T) {
	c := prepTestDB(t)
	stmt, err := c.Prepare(`SELECT i FROM nums WHERE i >= ? AND i <= 3 AND f < ?`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Query(int64(2), 99.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 2 {
		t.Fatalf("expected rows 2..3, got %d rows", res.Table.NumRows())
	}
	// same stmt, narrower bind
	res, err = stmt.Query(int64(3), 2.6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 1 || res.Table.Cols[0].Ints[0] != 3 {
		t.Fatalf("expected exactly row 3, got %v", res.Table.Cols[0].Ints)
	}
}

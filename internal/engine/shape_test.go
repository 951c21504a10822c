package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// TestLoopbackKeepsOuterBinds: a UDF's loopback statement binds its own
// literals while the outer statement still has literals of its own to read
// (`+ 100` and `'tail'` are evaluated after the UDF returned), in both
// processing models. The loopback statement runs in a frame of its own, so
// its binds never replace the outer ones.
func TestLoopbackKeepsOuterBinds(t *testing.T) {
	for _, mode := range []Mode{ModeOperatorAtATime, ModeTupleAtATime} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newTestConn()
			c.DB.Mode = mode
			mustExec(t, c, `CREATE TABLE t (i INTEGER)`)
			mustExec(t, c, `INSERT INTO t VALUES (1), (2), (3), (4), (5)`)
			mustExec(t, c, `CREATE TABLE one (x INTEGER)`)
			mustExec(t, c, `INSERT INTO one VALUES (7)`)
			mustExec(t, c, `CREATE FUNCTION above(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    res = _conn.execute("SELECT COUNT(*) AS n FROM t WHERE i > 3")
    return res['n']
}`)
			for _, q := range []string{
				`SELECT above(x) + 100 AS v, 'tail' AS s FROM one WHERE x >= 0`,
				`SELECT above(x) + 100 AS v, 'tail' AS s FROM one WHERE x >= 1`, // the same shape, a cache hit
			} {
				r := mustExec(t, c, q)
				v, s := r.Table.Cols[0], r.Table.Cols[1]
				if r.Table.NumRows() != 1 || v.Ints[0] != 102 || s.Strs[0] != "tail" {
					t.Fatalf("%s: v=%v s=%v", q, v.Ints, s.Strs)
				}
			}
		})
	}
}

// TestShapedTextAgreesWithLiteralText pins the traps of executing ad-hoc
// text through a literal-blind plan: each statement runs through Exec (shape,
// cache, binds) and through ExecAll, which parses the text and executes its
// literal AST, and the two must agree on the result or the error. Each group
// shares one shape, so every statement after a group's first is served by
// the plan its predecessors left (or, where a pinned literal differs, must
// not be). The last group, of sys_extract calls, also counts its plans.
func TestShapedTextAgreesWithLiteralText(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE t (i INTEGER, f DOUBLE, s STRING)`)
	mustExec(t, c, `INSERT INTO t VALUES (3, 0.5, 'c'), (1, 2.5, 'a'), (2, -1.5, NULL), (4, 1.0, 'b')`)
	mustExec(t, c, `CREATE FUNCTION ident(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return x
}`)
	mustExec(t, c, `CREATE FUNCTION twin(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return x
}`)
	groups := [][]string{
		// unaliased literal items keep the col<n> names of their position
		{`SELECT 1, 2.5, 'x', i FROM t`, `SELECT 7, -0.25, 'it''s', i FROM t`},
		// an ORDER BY position is syntax: the two must not share a plan
		{`SELECT i, s FROM t ORDER BY 2`, `SELECT i, s FROM t ORDER BY 1`, `SELECT i, s FROM t ORDER BY 2 DESC`},
		{`SELECT i FROM t ORDER BY i LIMIT 2`, `SELECT i FROM t ORDER BY i LIMIT 3`, `SELECT i FROM t ORDER BY i LIMIT 2`},
		{`SELECT CAST(i AS DOUBLE) AS d, CAST('7' AS INTEGER) AS n FROM t`, `SELECT CAST(i AS DOUBLE) AS d, CAST('x' AS INTEGER) AS n FROM t`},
		{`SELECT s || 'x' || 3 AS c FROM t`, `SELECT s || '' || 40 AS c FROM t`},
		// NULL, TRUE and FALSE are keywords: they stay in the shape
		{`SELECT NULL AS n, TRUE AS b, i FROM t WHERE s IS NOT NULL`, `SELECT NULL AS n, FALSE AS b, i FROM t WHERE s IS NULL`},
		{`SELECT i FROM t WHERE i > -3 AND f < -1.0`, `SELECT i FROM t WHERE i > -1 AND f < 2.0`},
		// the shape of -5 must not hide the parse error of the same shape
		{`SELECT -5 AS v`, `SELECT -9223372036854775808 AS v`, `SELECT -9223372036854775807 AS v`, `SELECT 1e999 AS v`},
		{`SELECT ident(i) + 1 AS v FROM t WHERE i <> 2`, `SELECT ident(i) + 2 AS v FROM t WHERE i <> 3`},
		{`SELECT COUNT(*) + 1 AS n, SUM(i) * 2 AS m FROM t GROUP BY s HAVING COUNT(*) > 0`, `SELECT COUNT(*) + 5 AS n, SUM(i) * 3 AS m FROM t GROUP BY s HAVING COUNT(*) > 1`},
	}
	run := func(group []string) {
		for _, q := range group {
			got, errS := c.Exec(q)
			var want *Result
			all, errL := c.ExecAll(q)
			if errL == nil {
				want = all[0]
			}
			if err := sameOutcome(errS, errL, func() error {
				if got.Msg != want.Msg {
					t.Fatalf("%s: tag %q vs %q", q, got.Msg, want.Msg)
				}
				assertTablesEqual(t, q, got.Table, want.Table)
				return nil
			}); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	for _, group := range groups {
		run(group)
	}
	// sys_extract's UDF name and transfer options are values like any
	// other: texts that differ only in them share one plan.
	before := c.DB.PlanCacheStatsSnapshot()
	run([]string{
		`SELECT * FROM sys_extract('ident', FALSE, FALSE, 0, -5, (SELECT i FROM t WHERE i > 1))`,
		`SELECT * FROM sys_extract('twin', FALSE, FALSE, 2, -7, (SELECT i FROM t WHERE i > 0))`,
		`SELECT * FROM sys_extract('ident', FALSE, FALSE, 3, -1, (SELECT i FROM t WHERE i > 0))`,
	})
	if st := c.DB.PlanCacheStatsSnapshot(); st.Misses-before.Misses != 1 || st.Hits-before.Hits != 2 {
		t.Fatalf("three extracts of one shape: %d misses and %d hits, want 1 and 2",
			st.Misses-before.Misses, st.Hits-before.Hits)
	}
}

// TestFormattedMinInt64EvaluatesToItself: the one INTEGER whose magnitude
// is no INTEGER literal formats as text that parses, and evaluates to it on
// the shaped path and the literal one.
func TestFormattedMinInt64EvaluatesToItself(t *testing.T) {
	c := newTestConn()
	q := `SELECT ` + sqlparse.FormatExpr(&sqlparse.IntLit{Value: math.MinInt64}) + ` AS v`
	shaped, err := c.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	all, err := c.ExecAll(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	for _, r := range []*Result{shaped, all[0]} {
		if v := r.Table.Cols[0]; v.Typ != storage.TInt || v.Ints[0] != math.MinInt64 {
			t.Fatalf("%s = %v, want %d", q, v.Value(0), int64(math.MinInt64))
		}
	}
}

// TestAdhocTextHitsOnePlan: statements differing only in literal values,
// surrounding whitespace and trailing ';' share one cache entry, and
// prepared text shares it with ad-hoc text.
func TestAdhocTextHitsOnePlan(t *testing.T) {
	c := prepTestDB(t)
	before := c.DB.PlanCacheStatsSnapshot()
	for _, q := range []string{
		`SELECT i FROM nums WHERE i > 1 AND s <> 'a'`,
		`SELECT i FROM nums WHERE i > 2 AND s <> 'b'`,
		"\n  SELECT i FROM nums WHERE i > 3 AND s <> 'it''s' ;; ",
	} {
		mustExec(t, c, q)
	}
	if _, err := c.Prepare(`SELECT i FROM nums WHERE i > 9 AND s <> 'z'`); err != nil {
		t.Fatal(err)
	}
	st := c.DB.PlanCacheStatsSnapshot()
	if hits, misses := st.Hits-before.Hits, st.Misses-before.Misses; hits != 3 || misses != 1 {
		t.Fatalf("hits %d misses %d, want 3 and 1", hits, misses)
	}
	// a literal of another kind is another shape
	mustExec(t, c, `SELECT i FROM nums WHERE i > 1.5 AND s <> 'a'`)
	if st2 := c.DB.PlanCacheStatsSnapshot(); st2.Misses != st.Misses+1 {
		t.Fatal("an INTEGER and a DOUBLE slot shared a plan")
	}
}

// TestAdhocPlaceholderRefused: a user's own placeholder in ad-hoc text is
// refused with the text it always had, on a cold and on a warm cache.
func TestAdhocPlaceholderRefused(t *testing.T) {
	c := prepTestDB(t)
	for i := 0; i < 2; i++ {
		for q, n := range map[string]int{
			`SELECT i FROM nums WHERE i > ? AND s <> 'a'`: 1,
			`SELECT $2 + i, $1 FROM nums WHERE i > 3`:     2,
		} {
			_, err := c.Exec(q)
			want := "statement expects " + string(rune('0'+n)) + " bind parameter(s); use Prepare and pass arguments"
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: %v, want %q", q, err, want)
			}
		}
	}
}

// TestNegativeLiteralKeepsTheFusedFilter: ad hoc, `i > -3` runs as
// `i > -$1`, and the fused compare-select path still takes it.
func TestNegativeLiteralKeepsTheFusedFilter(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE t (i INTEGER, f DOUBLE)`)
	mustExec(t, c, `INSERT INTO t VALUES (-5, -2.5), (-1, 0.5), (4, -1.75)`)
	var s Stmt
	if err := c.resolve(&s, `SELECT i FROM t WHERE i > -3 AND f < -1.5`, nil); err != nil {
		t.Fatal(err)
	}
	src, err := c.DB.cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	f := &frame{Conn: c, binds: s.lits}
	sel, ok := f.tryFilterFast(src, s.plan.st.(*sqlparse.Select).Where)
	if !ok {
		t.Fatal("fused filter declined -<bind>")
	}
	if len(sel) != 1 || sel[0] != 2 {
		t.Fatalf("selected rows %v, want [2]", sel)
	}
}

// TestPlanCacheUnderConcurrentUse: connections shape, look up, store and
// evict plans while catalog changes run beside them, all outside db.mu; run
// under -race, this is what guards the cache's own mutex. The cache starts
// full, so every new shape evicts one. Every answer must still be the one
// its own literals ask for.
func TestPlanCacheUnderConcurrentUse(t *testing.T) {
	c := prepTestDB(t)
	for i := 0; i < planCacheSize; i++ {
		if _, err := c.Exec(fmt.Sprintf(`SELECT 1 AS fill%d`, i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 5)
	for g := 0; g < 4; g++ {
		go func(g int) {
			conn := &Conn{DB: c.DB}
			for i := 0; i < 150; i++ {
				lo := int64((g + i) % 5)
				var r *Result
				var err error
				switch i % 3 {
				case 0:
					r, err = conn.Exec(fmt.Sprintf(`SELECT COUNT(*) AS n FROM nums WHERE i > %d`, lo))
				case 1:
					r, err = conn.Exec(fmt.Sprintf(`SELECT COUNT(*) AS n%d FROM nums WHERE i > %d`, g, lo))
				default:
					var st *Stmt
					if st, err = conn.Prepare(fmt.Sprintf(`SELECT COUNT(*) AS n FROM nums WHERE i > %d AND i > ?`, lo)); err == nil {
						r, err = st.Query(int64(-1))
					}
				}
				if err == nil && r.Table.Cols[0].Ints[0] != max(0, 4-lo) {
					err = fmt.Errorf("i > %d counted %d rows", lo, r.Table.Cols[0].Ints[0])
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	go func() {
		conn := &Conn{DB: c.DB}
		for i := 0; i < 30; i++ {
			if _, err := conn.Exec(fmt.Sprintf(`CREATE TABLE churn%d (x INTEGER)`, i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 5; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

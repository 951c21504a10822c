package engine

// Differential tests of the vectorized engine against the test-side
// reference: random columns across all five storage types (NULL-dense,
// empty, length-1 broadcast) through every kernel and its row-at-a-time
// twin in ref_kernels_test.go, the query corpus through evalSelect and
// the refSelect oracle (literal and prepared), and a morsel-parallel
// stress test meant to run under -race.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// randColumn generates a random column: typ, n rows, nullDensity in
// [0,1]. Int values stay small enough that float64 promotion is exact.
func randColumn(rng *rand.Rand, typ storage.Type, n int, nullDensity float64) *storage.Column {
	col := storage.NewColumn("", typ)
	for i := 0; i < n; i++ {
		if rng.Float64() < nullDensity {
			col.AppendNull()
			continue
		}
		switch typ {
		case storage.TInt:
			col.AppendInt(rng.Int63n(41) - 20) // includes 0 for div-by-zero paths
		case storage.TFloat:
			col.AppendFloat(float64(rng.Int63n(2001)-1000) / 8)
		case storage.TStr:
			col.AppendStr(string(rune('a' + rng.Intn(5))))
		case storage.TBool:
			col.AppendBool(rng.Intn(2) == 0)
		case storage.TBlob:
			b := make([]byte, rng.Intn(4))
			rng.Read(b)
			col.AppendBlob(b)
		}
	}
	return col
}

func colsSemanticallyEqual(a, b *storage.Column) error {
	if a.Typ != b.Typ {
		return fmt.Errorf("type %s vs %s", a.Typ, b.Typ)
	}
	if a.Len() != b.Len() {
		return fmt.Errorf("length %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		an, bn := a.IsNull(i), b.IsNull(i)
		if an != bn {
			return fmt.Errorf("row %d: null %v vs %v", i, an, bn)
		}
		if an {
			// NULL rows must carry zero values in the raw vectors: the
			// zero-copy GO-UDF boundary and the scalar reference's
			// AppendNull both guarantee it
			for which, c := range map[string]*storage.Column{"a": a, "b": b} {
				if !rawZeroAt(c, i) {
					return fmt.Errorf("row %d (%s): non-zero value under NULL", i, which)
				}
			}
			continue
		}
		av, bv := a.Value(i), b.Value(i)
		if a.Typ == storage.TFloat {
			af, bf := av.(float64), bv.(float64)
			if af != bf && !(math.IsNaN(af) && math.IsNaN(bf)) {
				return fmt.Errorf("row %d: %v vs %v", i, af, bf)
			}
			continue
		}
		if a.Typ == storage.TBlob {
			if string(av.([]byte)) != string(bv.([]byte)) {
				return fmt.Errorf("row %d: blob mismatch", i)
			}
			continue
		}
		if av != bv {
			return fmt.Errorf("row %d: %v vs %v", i, av, bv)
		}
	}
	return nil
}

func rawZeroAt(c *storage.Column, i int) bool {
	switch c.Typ {
	case storage.TInt:
		return c.Ints[i] == 0
	case storage.TFloat:
		return c.Flts[i] == 0
	case storage.TStr:
		return c.Strs[i] == ""
	case storage.TBool:
		return !c.Bools[i]
	case storage.TBlob:
		return len(c.Blobs[i]) == 0
	default:
		return true
	}
}

// sameOutcome is the differential verdict: both sides fail with the same
// kind and text, or both succeed and equal() finds no difference.
func sameOutcome(errV, errR error, equal func() error) error {
	if (errV == nil) != (errR == nil) {
		return fmt.Errorf("error mismatch vec=%v ref=%v", errV, errR)
	}
	if errV == nil {
		return equal()
	}
	if core.KindOf(errV) != core.KindOf(errR) {
		return fmt.Errorf("error kind %v vs %v (%v / %v)", core.KindOf(errV), core.KindOf(errR), errV, errR)
	}
	if errV.Error() != errR.Error() {
		return fmt.Errorf("error text %q vs %q", errV, errR)
	}
	return nil
}

func tablesSemanticallyEqual(a, b *storage.Table) error {
	if len(a.Cols) != len(b.Cols) {
		return fmt.Errorf("columns %d vs %d", len(a.Cols), len(b.Cols))
	}
	for i := range a.Cols {
		if a.Cols[i].Name != b.Cols[i].Name {
			return fmt.Errorf("col %d: name %q vs %q", i, a.Cols[i].Name, b.Cols[i].Name)
		}
		if err := colsSemanticallyEqual(a.Cols[i], b.Cols[i]); err != nil {
			return fmt.Errorf("col %s: %v", a.Cols[i].Name, err)
		}
	}
	return nil
}

// TestBinaryKernelsAgreeWithScalarReference drives every binary operator
// over random operand pairs — all five storage types, empty columns,
// length-1 broadcast on either side, NULL-dense and NULL-free — through
// the vectorized kernels and the reference kernels, requiring identical
// columns or identical errors.
func TestBinaryKernelsAgreeWithScalarReference(t *testing.T) {
	vecC := &frame{Conn: newTestConn()}
	ops := []string{"+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">=", "AND", "OR", "||"}
	types := []storage.Type{storage.TInt, storage.TFloat, storage.TStr, storage.TBool, storage.TBlob}
	shapes := [][2]int{{64, 64}, {1, 64}, {64, 1}, {1, 1}, {0, 0}}
	densities := []float64{0, 0.3, 1}
	rng := rand.New(rand.NewSource(7))
	for _, op := range ops {
		for _, lt := range types {
			for _, rt := range types {
				for _, sh := range shapes {
					for _, den := range densities {
						l := randColumn(rng, lt, sh[0], den)
						r := randColumn(rng, rt, sh[1], den)
						gotV, errV := vecC.evalBinary(op, l, r)
						gotR, errR := scalarEvalBinary(op, l, r)
						tag := fmt.Sprintf("%s %s %s shape=%v nulls=%v", lt, op, rt, sh, den)
						if err := sameOutcome(errV, errR, func() error { return colsSemanticallyEqual(gotV, gotR) }); err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
					}
				}
			}
		}
	}
}

// TestUnaryKernelsAgreeWithScalarReference covers unary minus and NOT.
func TestUnaryKernelsAgreeWithScalarReference(t *testing.T) {
	vecC := &frame{Conn: newTestConn()}
	rng := rand.New(rand.NewSource(11))
	for _, op := range []string{"-", "NOT"} {
		for _, typ := range []storage.Type{storage.TInt, storage.TFloat, storage.TStr, storage.TBool, storage.TBlob} {
			for _, n := range []int{0, 1, 77} {
				for _, den := range []float64{0, 0.4, 1} {
					x := randColumn(rng, typ, n, den)
					gotV, errV := vecC.evalUnary(op, x)
					gotR, errR := scalarEvalUnary(op, x)
					tag := fmt.Sprintf("%s %s n=%d nulls=%v", op, typ, n, den)
					if err := sameOutcome(errV, errR, func() error { return colsSemanticallyEqual(gotV, gotR) }); err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
				}
			}
		}
	}
}

// seedRandomTable creates and fills the same random table in every
// database.
func seedRandomTable(t testing.TB, rng *rand.Rand, conns []*Conn, rows int, nullDensity float64) {
	t.Helper()
	cols := []*storage.Column{
		randColumn(rng, storage.TInt, rows, nullDensity),
		randColumn(rng, storage.TInt, rows, nullDensity),
		randColumn(rng, storage.TFloat, rows, nullDensity),
		randColumn(rng, storage.TStr, rows, nullDensity),
		randColumn(rng, storage.TBool, rows, nullDensity),
	}
	names := []string{"i", "j", "f", "s", "b"}
	for ci, name := range names {
		cols[ci].Name = name
	}
	for _, c := range conns {
		tbl := &storage.Table{Name: "t"}
		for _, col := range cols {
			tbl.Cols = append(tbl.Cols, col.Clone())
		}
		if err := c.DB.RegisterTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
}

var differentialQueries = []string{
	// WHERE fast path (fused compare-select), generic predicates, NULLs
	`SELECT i FROM t WHERE i > 3`,
	`SELECT i, f FROM t WHERE f > 12.5 AND i < 10`,
	`SELECT * FROM t WHERE s = 'c'`,
	`SELECT i FROM t WHERE 5 > i`,
	`SELECT i FROM t WHERE i + j > 0`,
	`SELECT i FROM t WHERE NOT b`,
	`SELECT i FROM t WHERE s IS NOT NULL AND b`,
	`SELECT i FROM t WHERE i IS NULL`,
	`SELECT i FROM t WHERE i > NULL`,
	// projection expressions through every kernel family
	`SELECT i + j AS a, i - j AS b2, i * j AS c, i * 2 AS d FROM t`,
	`SELECT f / 2.0 AS h, -i AS n1, i % 7 AS m FROM t WHERE i <> 0`,
	`SELECT i = j AS e, i < j AS lt, f >= 10.0 AS ge FROM t`,
	`SELECT s || '!' AS sx, b AND i > 0 AS ab, b OR f > 0.0 AS ob FROM t`,
	`SELECT CAST(i AS DOUBLE) AS fd, CAST(f AS INTEGER) AS fi FROM t`,
	`SELECT CAST(i AS INTEGER) AS ii, CAST(s AS STRING) AS ss, CAST(b AS BOOLEAN) AS bb FROM t`,
	`SELECT CAST(i AS STRING) AS si, CAST(f AS STRING) AS sf, CAST(b AS STRING) AS sb FROM t`,
	`SELECT CAST(b AS INTEGER) AS bi, CAST(i AS BOOLEAN) AS ib, CAST(s AS BLOB) AS sbl FROM t`,
	`SELECT CAST(CAST(i AS STRING) AS INTEGER) + 1 AS back, CAST('2.5' AS DOUBLE) AS lit FROM t`,
	`SELECT CAST(s AS INTEGER) FROM t`,
	`SELECT CAST(f AS BOOLEAN) FROM t`,
	`SELECT CAST(b AS DOUBLE) FROM t`,
	`SELECT ABS(i) AS ai, SQRT(ABS(f)) AS sf, LENGTH(s) AS ls, UPPER(s) AS us FROM t`,
	`SELECT ROUND(f, 1) AS r1 FROM t`,
	// aggregates: ungrouped (selection consumed directly) and grouped
	`SELECT COUNT(*) AS n, COUNT(i) AS ni, SUM(i) AS si, AVG(f) AS af FROM t WHERE i > 0`,
	`SELECT MIN(i) AS mi, MAX(f) AS mf, MIN(s) AS ms, MAX(b) AS mb FROM t`,
	`SELECT SUM(i) + COUNT(*) AS x FROM t WHERE f < 50.0`,
	`SELECT SUM(i * 2) AS s2, AVG(i + j) AS aij FROM t`,
	`SELECT s, COUNT(*) AS n, SUM(i) AS si FROM t GROUP BY s`,
	`SELECT s, b, AVG(f) AS af FROM t GROUP BY s, b`,
	`SELECT i % 3 AS g3, COUNT(*) AS n FROM t WHERE i IS NOT NULL AND i >= 0 GROUP BY i % 3`,
	`SELECT s, COUNT(*) AS n FROM t GROUP BY s HAVING COUNT(*) > 2`,
	`SELECT COUNT(*) AS n FROM t WHERE i > 1000`,
	`SELECT SUM(i) AS si FROM t WHERE i > 1000`,
	// a constant argument stands for its value on every row (prepared, SUM(2)
	// is SUM(?) with 2 bound)
	`SELECT COUNT(1) AS c1, SUM(2) AS s2, AVG(2.5) AS a, MIN('x') AS mn, COUNT(NULL) AS cn, SUM(NULL) AS sn FROM t`,
	`SELECT s, COUNT(1) AS c1, SUM(2) AS s2, MAX(3) AS m3 FROM t WHERE i > 0 GROUP BY s`,
	`SELECT COUNT(1) AS c1, SUM(2) AS s2 FROM t WHERE i > 1000`,
	`SELECT SUM(2 * 3) + COUNT(1) AS x FROM t HAVING SUM(2) > 4`,
	// ORDER BY, LIMIT, DISTINCT on top of selections
	`SELECT i, s FROM t WHERE i > 0 ORDER BY i DESC, s LIMIT 5`,
	`SELECT i FROM t WHERE b ORDER BY f LIMIT 3`,
	`SELECT DISTINCT s FROM t`,
	`SELECT DISTINCT s, b FROM t WHERE i > 0`,
	`SELECT s, COUNT(*) AS n FROM t GROUP BY s ORDER BY n DESC, s LIMIT 2`,
	// NaN-producing comparisons (compareAt treats NaN as cmp==0, so
	// NaN = x / <= / >= are TRUE; the kernels must reproduce that)
	`SELECT COUNT(*) AS n FROM t WHERE SQRT(f) = 2.0`,
	`SELECT COUNT(*) AS n FROM t WHERE SQRT(f) <> 2.0`,
	`SELECT SQRT(f) <= 1.0 AS le, SQRT(f) >= 1.0 AS ge, SQRT(f) < 1.0 AS lt FROM t`,
	`SELECT MIN(SQRT(f)) AS mn, MAX(SQRT(f)) AS mx FROM t`,
	// projection aliasing: shared views, duplicate and renamed bare refs
	`SELECT i AS a, i AS b2, i + 1 AS c FROM t WHERE i > 0`,
	`SELECT *, i + 1 AS next FROM t WHERE i > 0`,
	// subqueries and FROM-less
	`SELECT (SELECT COUNT(*) FROM t) AS n`,
	`SELECT i FROM (SELECT i FROM t WHERE i > 0) WHERE i < 10`,
	`SELECT 1 + 2 AS three`,
	// constant predicates
	`SELECT i FROM t WHERE 1 = 1 LIMIT 4`,
	`SELECT i FROM t WHERE 1 = 2`,
	// errors must match too
	`SELECT i / 0 FROM t`,
	`SELECT i % 0 FROM t`,
	`SELECT i + s FROM t`,
	`SELECT i < s FROM t`,
	`SELECT -s FROM t`,

	// ---- the gaps ROADMAP listed before the reference moved test-side ----
	// ORDER BY on an expression and on an alias, over a filtered source
	`SELECT i, j FROM t WHERE i > 0 ORDER BY i + j DESC, i, j`,
	`SELECT i * 2 AS d, s FROM t WHERE b ORDER BY d DESC, s`,
	`SELECT i FROM t WHERE f > 0.0 ORDER BY ABS(j), i LIMIT 7`,
	`SELECT DISTINCT s FROM t WHERE i > 0 ORDER BY s DESC`,
	`SELECT i FROM t ORDER BY 1 DESC LIMIT 3`,
	`SELECT i FROM t ORDER BY 2`,
	// HAVING over a scalar-UDF result and over an aggregate of an expression
	`SELECT s, COUNT(*) AS n FROM t GROUP BY s HAVING dsq(COUNT(*)) > 4`,
	`SELECT s, SUM(dsq(i)) AS q FROM t GROUP BY s HAVING SUM(dsq(i)) > 50`,
	`SELECT b, SUM(i * 2) AS s2 FROM t WHERE i IS NOT NULL GROUP BY b HAVING SUM(i * 2) > 10 AND COUNT(*) > 1`,
	`SELECT COUNT(*) AS n, SUM(i) AS si FROM t HAVING SUM(i + j) > 100000`,
	`SELECT i FROM t HAVING i > 0`,
	// scalar subquery in WHERE and in the projection
	`SELECT i FROM t WHERE i > (SELECT AVG(i) FROM t)`,
	`SELECT i, (SELECT MAX(j) FROM t WHERE j < 10) AS mj FROM t WHERE i > 0`,
	`SELECT i FROM t WHERE i > (SELECT j FROM t)`,
	// FROM-subquery with its own WHERE / LIMIT / aggregate
	`SELECT i, f FROM (SELECT i, f FROM t WHERE f > 0.0 LIMIT 20) WHERE i < 5`,
	`SELECT n + 1 AS m FROM (SELECT s, COUNT(*) AS n FROM t GROUP BY s) WHERE n > 1 ORDER BY m`,
	`SELECT MAX(d) AS md FROM (SELECT DISTINCT i * 2 AS d FROM t WHERE i > 0 ORDER BY d LIMIT 4)`,
	// the same column bare and inside an expression, under aliases
	`SELECT i, i + 1 AS i1, i AS again FROM t WHERE i > 0`,
	`SELECT i AS x, i * i AS x2, x FROM t`,
	`SELECT i, i FROM t WHERE i > 0`,
	`SELECT s, i, s, i + 0 AS i0, i FROM t WHERE b ORDER BY i LIMIT 150`,
	`SELECT s AS a, s AS b2, s || s AS ss, * FROM t WHERE s <> 'a' LIMIT 9`,
	`SELECT i AS a, SUM(i) AS si, i AS a2 FROM t WHERE i > 0 GROUP BY i`,
	// DISTINCT over NULL-heavy rows and over NaN / +0 / -0
	`SELECT DISTINCT i, s FROM t`,
	`SELECT DISTINCT b, i IS NULL AS inull FROM t`,
	`SELECT DISTINCT SQRT(f) AS r FROM t WHERE f < 3.0`,
	`SELECT DISTINCT f * 0.0 AS z, i * 0 AS iz FROM t`,
	`SELECT f * 0.0 AS z, COUNT(*) AS n FROM t GROUP BY f * 0.0`,
	// LIMIT 0 and LIMIT past the input
	`SELECT i, s FROM t LIMIT 0`,
	`SELECT i FROM t WHERE i > 0 LIMIT 100000`,
	`SELECT s, COUNT(*) AS n FROM t GROUP BY s LIMIT 0`,
	`SELECT DISTINCT b FROM t ORDER BY b LIMIT 100`,
	// GROUP BY over no rows still types and checks its items
	`SELECT s, COUNT(*) AS n FROM t WHERE i > 1000 GROUP BY s`,
	`SELECT nosuch FROM t WHERE i > 1000 GROUP BY s`,
	`SELECT * FROM t WHERE i > 1000 GROUP BY s`,
	// UDFs: a native GO and a PYTHON function through both pipelines
	`SELECT SUM(dsq(i)) AS s FROM t`,
	`SELECT dsq(i) AS q, i FROM t WHERE i > 2 ORDER BY q DESC, i LIMIT 6`,
	`SELECT py_inc(i) AS p FROM t WHERE i > 0`,
	`SELECT s, MAX(py_inc(j)) AS mp FROM t WHERE j IS NOT NULL GROUP BY s`,
	`SELECT i FROM t WHERE py_inc(i) > dsq(j)`,
	`SELECT dsq((SELECT i FROM t WHERE i > 5)) AS q`,
	`SELECT dsq(i, j) FROM t`,
	`SELECT no_such_fn(i) FROM t`,
}

// diffConn builds the differential fixture: the random table t plus one
// native GO and one PYTHON UDF.
func diffConn(t testing.TB, rows int, nullDensity float64) *Conn {
	t.Helper()
	c := newTestConn()
	seedRandomTable(t, rand.New(rand.NewSource(int64(rows)+99)), []*Conn{c}, rows, nullDensity)
	if err := c.DB.RegisterGoUDFElementwise("dsq", func(x []int64) []int64 {
		out := make([]int64, len(x))
		for i, v := range x {
			out[i] = v * v
		}
		return out
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`CREATE FUNCTION py_inc(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
		out = []
		for v in x:
		    if v is None:
		        out.append(None)
		    else:
		        out.append(v + 1)
		return out
	}`); err != nil {
		t.Fatal(err)
	}
	return c
}

// agree runs one query through the vectorized engine and the oracle and
// requires identical tables or identical errors.
func agree(t *testing.T, c *Conn, q string) {
	t.Helper()
	got, errV := c.Exec(q)
	want, errR := refExec(c, q)
	if err := sameOutcome(errV, errR, func() error { return sameOwnedTable(got.Table, want) }); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
}

// sameOwnedTable is table equality plus the ownership invariant equal
// values cannot show: no two columns of the engine's result are one
// object or share a value vector (project's clone-on-repeat — a shared
// column is renamed, sliced and appended to as two).
func sameOwnedTable(got, want *storage.Table) error {
	if err := tablesSemanticallyEqual(got, want); err != nil {
		return err
	}
	for i, a := range got.Cols {
		for _, b := range got.Cols[:i] {
			if a == b || (a.Len() > 0 && a.Typ == b.Typ && vectorStart(a) == vectorStart(b)) {
				return fmt.Errorf("result columns %d and an earlier one (%s) share storage", i, a.Name)
			}
		}
	}
	return nil
}

// vectorStart addresses the first cell of a non-empty column's value vector.
func vectorStart(c *storage.Column) any {
	switch c.Typ {
	case storage.TInt:
		return &c.Ints[0]
	case storage.TFloat:
		return &c.Flts[0]
	case storage.TStr:
		return &c.Strs[0]
	case storage.TBool:
		return &c.Bools[0]
	default:
		return &c.Blobs[0]
	}
}

// agreePrepared runs the query once more with every literal turned into a
// bind parameter: Prepare + Query on the engine, the same text and binds
// through the oracle.
func agreePrepared(t *testing.T, c *Conn, q string) {
	t.Helper()
	psql, binds := parameterize(t, c, q)
	if len(binds) == 0 {
		return
	}
	var got *Result
	stmt, errV := c.Prepare(psql)
	if errV == nil {
		got, errV = stmt.Query(binds...)
	}
	want, errR := refExec(c, psql, binds...)
	if err := sameOutcome(errV, errR, func() error { return sameOwnedTable(got.Table, want) }); err != nil {
		t.Fatalf("%s (binds %v): %v", psql, binds, err)
	}
}

// parameterize lifts the value literals of a statement into numbered bind
// parameters by the plan cache's own rule, returning the new text and the
// values to bind.
func parameterize(t *testing.T, c *Conn, sql string) (string, []any) {
	t.Helper()
	var s Stmt
	if err := c.resolve(&s, sql, nil); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	binds := make([]any, len(s.lits))
	for i, col := range s.lits {
		binds[i] = col.Value(0)
	}
	return sqlparse.Format(s.plan.st), binds
}

// TestQueriesAgreeWithScalarReference runs the differential corpus, as
// written and once more prepared with its literals bound, through the
// vectorized engine and the refSelect oracle over random tables (dense,
// NULL-heavy, empty, one row, and dense again under forced small
// morsels) and requires identical result tables or identical errors —
// the proof that selection vectors, view memoization, clone-on-alias,
// typed grouping and the kernels change nothing semantically.
func TestQueriesAgreeWithScalarReference(t *testing.T) {
	for _, tc := range []struct {
		name            string
		rows            int
		nullDensity     float64
		workers, morsel int
	}{
		{"dense", 200, 0, 0, 0},
		{"null-mixed", 150, 0.35, 0, 0},
		{"all-null", 40, 1, 0, 0},
		{"empty", 0, 0, 0, 0},
		{"one-row", 1, 0, 0, 0},
		{"morsels", 180, 0.1, 4, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := diffConn(t, tc.rows, tc.nullDensity)
			c.DB.workers, c.DB.morselSize = tc.workers, tc.morsel
			for _, q := range differentialQueries {
				agree(t, c, q)
				agreePrepared(t, c, q)
			}
		})
	}
}

// TestEmptyGroupByTypesAndChecksItsItems: a GROUP BY that keeps no group,
// because WHERE left no rows or HAVING refused every group, types its
// items and reports their errors as it does when groups remain.
func TestEmptyGroupByTypesAndChecksItsItems(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE t (i INTEGER, s STRING)`)
	mustExec(t, c, `INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'a')`)
	for _, tail := range []string{
		`WHERE i > 0 GROUP BY s`,
		`WHERE i < 0 GROUP BY s`,
		`GROUP BY s HAVING COUNT(*) > 5`,
	} {
		r := mustExec(t, c, `SELECT s, COUNT(*) AS n FROM t `+tail)
		if typ := r.Table.Cols[1].Typ; typ != storage.TInt {
			t.Errorf("%s: n is %s, want INTEGER", tail, typ)
		}
		if _, err := c.Exec(`SELECT nosuch FROM t ` + tail); core.KindOf(err) != core.KindName {
			t.Errorf("%s: SELECT nosuch gave %v, want a name error", tail, err)
		}
		if _, err := c.Exec(`SELECT * FROM t ` + tail); err == nil || !strings.Contains(err.Error(), "SELECT *") {
			t.Errorf("%s: SELECT * gave %v, want it refused", tail, err)
		}
	}
}

// TestSelectionVectorRegression: WHERE and LIMIT produce identical
// results with selection vectors and slicing (the engine) and with an
// immediate gather and an identity-index copy (the oracle), including
// the interaction of both.
func TestSelectionVectorRegression(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE r (i INTEGER, s STRING)`)
	mustExec(t, c, `INSERT INTO r VALUES (1,'a'), (2,'b'), (3,NULL), (4,'d'), (5,'e'), (6,'f')`)
	for _, q := range []string{
		`SELECT i, s FROM r WHERE i > 2`,
		`SELECT i FROM r WHERE i > 2 LIMIT 2`,
		`SELECT i FROM r LIMIT 3`,
		`SELECT i FROM r LIMIT 0`,
		`SELECT * FROM r WHERE s IS NOT NULL LIMIT 2`,
		`SELECT COUNT(*) AS n FROM r WHERE i >= 4`,
		`SELECT s FROM r WHERE i % 2 = 0 ORDER BY i DESC LIMIT 1`,
	} {
		agree(t, c, q)
	}
	// LIMIT slicing must not leave the result mutable into the source
	r := mustExec(t, c, `SELECT i FROM r LIMIT 2`)
	if got := intCol(t, r.Table, "i"); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("limit slice: %v", got)
	}
}

// TestBlobGroupingAgrees pins the blob-key fix: DISTINCT and GROUP BY
// over blob columns key on content in the engine and the oracle (the
// historical formatted key "<blob NB>" collapsed distinct same-length
// blobs).
func TestBlobGroupingAgrees(t *testing.T) {
	c := newTestConn()
	bl := storage.NewColumn("bl", storage.TBlob)
	g := storage.NewColumn("g", storage.TInt)
	for _, row := range []struct {
		b []byte
		v int64
	}{
		{[]byte("abc"), 1}, {[]byte("xyz"), 2}, {[]byte("abc"), 3}, {nil, 4}, {[]byte("ab\x01c"), 5},
	} {
		if row.b == nil {
			bl.AppendNull()
		} else {
			bl.AppendBlob(row.b)
		}
		g.AppendInt(row.v)
	}
	if err := c.DB.RegisterTable(&storage.Table{Name: "bt", Cols: []*storage.Column{bl, g}}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT DISTINCT bl FROM bt`,
		`SELECT bl, COUNT(*) AS n, SUM(g) AS sg FROM bt GROUP BY bl`,
	} {
		agree(t, c, q)
		// distinct same-length blobs must stay distinct: abc, xyz, NULL, ab\x01c
		if n := mustExec(t, c, q).Table.NumRows(); n != 4 {
			t.Fatalf("%s: %d groups, want 4", q, n)
		}
	}
}

// TestMorselParallelExecution forces many small morsels across workers
// over a table large enough to split, checking that parallel results
// match serial ones exactly for int aggregation and within float
// tolerance for float sums, and that a native GO UDF batch split across
// morsels stitches back losslessly. Run with -race in CI.
func TestMorselParallelExecution(t *testing.T) {
	const rows = 40_000
	serial, parallel := newTestConn(), newTestConn()
	serial.DB.workers = 1
	parallel.DB.workers = 8
	parallel.DB.morselSize = 512
	rng := rand.New(rand.NewSource(21))
	seedRandomTable(t, rng, []*Conn{serial, parallel}, rows, 0.1)
	for _, c := range []*Conn{serial, parallel} {
		if err := c.DB.RegisterGoUDFElementwise("vsquare", func(x []int64) []int64 {
			out := make([]int64, len(x))
			for i, v := range x {
				out[i] = v * v
			}
			return out
		}); err != nil {
			t.Fatal(err)
		}
	}

	queries := []string{
		`SELECT COUNT(*) AS n, SUM(i) AS si, MIN(i) AS mi, MAX(i) AS ma FROM t WHERE i > 0`,
		`SELECT i + j AS a FROM t WHERE i > 5 LIMIT 10`,
		`SELECT s, COUNT(*) AS n, SUM(i) AS si FROM t GROUP BY s ORDER BY s`,
		`SELECT SUM(vsquare(i)) AS sq FROM t WHERE i IS NOT NULL`,
		`SELECT DISTINCT s FROM t WHERE b`,
	}
	for _, q := range queries {
		gotS, errS := serial.Exec(q)
		gotP, errP := parallel.Exec(q)
		if errS != nil || errP != nil {
			t.Fatalf("%s: serial=%v parallel=%v", q, errS, errP)
		}
		if err := tablesSemanticallyEqual(gotS.Table, gotP.Table); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}

	// float sums may associate differently across morsels: tolerance
	gotS, _ := serial.Exec(`SELECT SUM(f) AS sf, AVG(f) AS af FROM t WHERE f > 0.0`)
	gotP, _ := parallel.Exec(`SELECT SUM(f) AS sf, AVG(f) AS af FROM t WHERE f > 0.0`)
	for ci := range gotS.Table.Cols {
		a, b := gotS.Table.Cols[ci].Flts[0], gotP.Table.Cols[ci].Flts[0]
		if math.Abs(a-b) > 1e-6*(1+math.Abs(a)) {
			t.Fatalf("float aggregate diverged: %v vs %v", a, b)
		}
	}

	// concurrent queries from many goroutines while kernels spawn their
	// own workers — the -race target
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn := &Conn{DB: parallel.DB, User: "monetdb", Password: "monetdb"}
			for k := 0; k < 4; k++ {
				q := queries[(g+k)%len(queries)]
				if _, err := conn.Exec(q); err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestParallelUDFBroadcastFallback: an aggregate-style GO UDF (column in,
// scalar out) is not element-wise, so registering it so is a type error;
// registered with RegisterGoUDF it answers one whole-batch total under
// parallel settings, never per-morsel scalars.
func TestParallelUDFBroadcastFallback(t *testing.T) {
	c := newTestConn()
	c.DB.workers = 4
	c.DB.morselSize = 64
	vtotal := func(x []int64) int64 {
		var s int64
		for _, v := range x {
			s += v
		}
		return s
	}
	if err := c.DB.RegisterGoUDFElementwise("vtotal", vtotal); core.KindOf(err) != core.KindType {
		t.Fatalf("element-wise vtotal: %v, want a type error", err)
	}
	if err := c.DB.RegisterGoUDF("vtotal", vtotal); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, `CREATE TABLE n1 (i INTEGER)`)
	var sb []byte
	sb = append(sb, `INSERT INTO n1 VALUES `...)
	want := int64(0)
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb = append(sb, ',')
		}
		sb = append(sb, fmt.Sprintf("(%d)", i)...)
		want += int64(i)
	}
	mustExec(t, c, string(sb))
	r := mustExec(t, c, `SELECT vtotal(i) AS s FROM n1`)
	if got := r.Table.Cols[0].Ints[0]; got != want {
		t.Fatalf("vtotal = %d, want %d", got, want)
	}
	// morselSize=1 must never split: a per-morsel scalar result would be
	// indistinguishable from an elementwise one-row result
	c.DB.morselSize = 1
	r = mustExec(t, c, `SELECT vtotal(i) AS s FROM n1`)
	if got, rows := r.Table.Cols[0].Ints[0], r.Table.NumRows(); rows != 1 || got != want {
		t.Fatalf("vtotal with morselSize=1 = %d over %d rows, want %d over 1", got, rows, want)
	}
}

// TestBatchDependentUDFNeverSplit: a Go UDF registered WITHOUT the
// element-wise declaration keeps whole-batch semantics under parallel
// settings — a prefix-sum over morsels would silently restart per
// morsel if the engine split it.
func TestBatchDependentUDFNeverSplit(t *testing.T) {
	c := newTestConn()
	c.DB.workers = 4
	c.DB.morselSize = 4
	if err := c.DB.RegisterGoUDF("prefix_sum", func(x []int64) []int64 {
		out := make([]int64, len(x))
		var run int64
		for i, v := range x {
			run += v
			out[i] = run
		}
		return out
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, `CREATE TABLE ps (i INTEGER)`)
	mustExec(t, c, `INSERT INTO ps VALUES (1), (1), (1), (1), (1), (1), (1), (1), (1), (1), (1), (1), (1), (1), (1), (1)`)
	r := mustExec(t, c, `SELECT prefix_sum(i) AS p FROM ps`)
	got := r.Table.Cols[0].Ints
	for i, v := range got {
		if v != int64(i+1) {
			t.Fatalf("prefix_sum restarted mid-batch: row %d = %d (full result %v)", i, v, got)
		}
	}
}

// TestParallelUDFMisalignedArgStillErrors: a columnar argument whose
// length matches the morsel size but not the batch must error exactly
// like the whole-batch call — the morsel split must not silently
// re-broadcast it per morsel.
func TestParallelUDFMisalignedArgStillErrors(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c := newTestConn()
		c.DB.workers = workers
		c.DB.morselSize = 64
		if err := c.DB.RegisterGoUDFElementwise("padd", func(x, y []int64) []int64 {
			out := make([]int64, len(x))
			for i := range x {
				out[i] = x[i] + y[i%len(y)]
			}
			return out
		}); err != nil {
			t.Fatal(err)
		}
		big := storage.NewColumn("i", storage.TInt)
		for i := 0; i < 128; i++ {
			big.AppendInt(int64(i))
		}
		small := storage.NewColumn("j", storage.TInt)
		for i := 0; i < 64; i++ {
			small.AppendInt(int64(i))
		}
		if err := c.DB.RegisterTable(&storage.Table{Name: "big128", Cols: []*storage.Column{big}}); err != nil {
			t.Fatal(err)
		}
		if err := c.DB.RegisterTable(&storage.Table{Name: "small64", Cols: []*storage.Column{small}}); err != nil {
			t.Fatal(err)
		}
		_, err := c.Exec(`SELECT padd(i, (SELECT j FROM small64)) FROM big128`)
		if err == nil {
			t.Fatalf("workers=%d: mis-sized columnar argument must error, got rows", workers)
		}
	}
}

// TestOracleServesUDFs pins the answers of the corpus's two UDF cases on
// a table small enough to check by hand, so that the engine and the
// oracle agreeing (TestQueriesAgreeWithScalarReference) also means both
// are right: a native GO and a PYTHON UDF, each under an aggregate.
func TestOracleServesUDFs(t *testing.T) {
	c := diffConn(t, 0, 0)
	mustExec(t, c, `CREATE TABLE m (i INTEGER)`)
	mustExec(t, c, `INSERT INTO m VALUES (1), (2), (3)`)
	for q, want := range map[string]int64{
		`SELECT SUM(dsq(i)) AS s FROM m`:                14,
		`SELECT SUM(py_inc(i)) AS s FROM m WHERE i > 1`: 7,
	} {
		agree(t, c, q)
		tbl, err := refExec(c, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := tbl.Cols[0].Ints[0]; got != want {
			t.Fatalf("%s = %d, want %d", q, got, want)
		}
	}
}

// FuzzBinaryKernelAgreement fuzzes operand bytes into int columns and
// checks vectorized-vs-reference agreement for the fuzzer-chosen op, which
// includes a zero value under every NULL of both results. A NULL operand
// row carries a non-zero value, so a kernel that computes through it and
// does not zero the result fails.
func FuzzBinaryKernelAgreement(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3}, []byte{4, 5, 6})
	f.Add(uint8(0), []byte{1, 255, 3}, []byte{4, 5, 255})
	f.Add(uint8(5), []byte{7, 255, 3}, []byte{7, 66, 255}) // "=": 2 == 2 under the NULL
	f.Add(uint8(3), []byte{0, 0}, []byte{0, 9})
	f.Add(uint8(7), []byte{255}, []byte{1, 2, 3, 4})
	ops := []string{"+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"}
	vecC := &frame{Conn: newTestConn()}
	toCol := func(bs []byte) *storage.Column {
		col := storage.NewColumn("", storage.TInt)
		for _, b := range bs {
			if b == 255 {
				col.AppendNull()
				col.Ints[len(col.Ints)-1] = int64(len(col.Ints))
			} else {
				col.AppendInt(int64(b) - 64)
			}
		}
		return col
	}
	f.Fuzz(func(t *testing.T, opByte uint8, lb, rb []byte) {
		op := ops[int(opByte)%len(ops)]
		l, r := toCol(lb), toCol(rb)
		gotV, errV := vecC.evalBinary(op, l, r)
		gotR, errR := scalarEvalBinary(op, l, r)
		if err := sameOutcome(errV, errR, func() error { return colsSemanticallyEqual(gotV, gotR) }); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	})
}

// TestCastAllocationsDoNotScaleWithRows: CAST copies typed cells. Between
// INTEGER and DOUBLE, and to the same type, it allocates the result's
// vectors and nothing per row — it used to box every value on the way.
func TestCastAllocationsDoNotScaleWithRows(t *testing.T) {
	ints := func(n int) *storage.Column {
		col := storage.NewColumn("i", storage.TInt)
		for i := 0; i < n; i++ {
			if i%7 == 0 {
				col.AppendNull()
			} else {
				col.AppendInt(int64(i) << 20) // past the runtime's small-value boxing cache
			}
		}
		return col
	}
	small, large := ints(1<<8), ints(10_000)
	for _, tc := range []struct {
		name     string
		from, to storage.Type
	}{
		{"INTEGER to DOUBLE", storage.TInt, storage.TFloat},
		{"DOUBLE to INTEGER", storage.TFloat, storage.TInt},
		{"INTEGER to INTEGER", storage.TInt, storage.TInt},
	} {
		allocs := func(x *storage.Column) float64 {
			if x.Typ != tc.from {
				var err error
				if x, err = castColumn(x, tc.from); err != nil {
					t.Fatal(err)
				}
			}
			return testing.AllocsPerRun(10, func() {
				if out, err := castColumn(x, tc.to); err != nil || out.Len() != x.Len() {
					t.Fatalf("cast: %v", err)
				}
			})
		}
		if atSmall, atLarge := allocs(small), allocs(large); atSmall != atLarge {
			t.Errorf("CAST %s: %v allocations at %d rows, %v at %d rows", tc.name, atSmall, small.Len(), atLarge, large.Len())
		}
	}
}

package engine

import (
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/udfrt/gort"
)

// TestScalarUDFOverEmptyColumn is the zero-row regression: an operator with
// no input tuples is never invoked, so a scalar UDF over an empty column —
// even one whose body would return a single aggregate-style value — yields
// an empty column, not a broadcast length-1 result.
func TestScalarUDFOverEmptyColumn(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE empty_t (i INTEGER)`)
	mustExec(t, c, `CREATE FUNCTION const_answer(column INTEGER)
RETURNS INTEGER LANGUAGE PYTHON {
    return 42
};`)
	res := mustExec(t, c, `SELECT const_answer(i) FROM empty_t`)
	if rows := res.Table.NumRows(); rows != 0 {
		t.Fatalf("scalar UDF over empty column returned %d rows, want 0", rows)
	}
	// tuple-at-a-time agrees: zero rows in, zero calls, zero rows out
	c.DB.Mode = ModeTupleAtATime
	res = mustExec(t, c, `SELECT const_answer(i) FROM empty_t`)
	if rows := res.Table.NumRows(); rows != 0 {
		t.Fatalf("tuple mode over empty column returned %d rows, want 0", rows)
	}
	// a constant call without table data still returns its single row
	c.DB.Mode = ModeOperatorAtATime
	res = mustExec(t, c, `SELECT const_answer(7)`)
	if rows := res.Table.NumRows(); rows != 1 {
		t.Fatalf("constant call returned %d rows, want 1", rows)
	}
}

// TestPythonUDFWritesItsOwnCopy: a PYTHON UDF's column argument wraps the
// table's vector without copying it, so it is the list that must copy
// before its first write — in place, by append or by sort, to a cell that
// was NULL, or through a second name for the same list. The table reads
// the same after every one of them, and the UDF sees its own writes.
func TestPythonUDFWritesItsOwnCopy(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE t (i INTEGER, f DOUBLE)`)
	mustExec(t, c, `INSERT INTO t VALUES (3, 0.5), (NULL, NULL), (2, 2.5)`)
	table := func() string {
		var sb strings.Builder
		res := mustExec(t, c, `SELECT i, f FROM t`)
		for r := 0; r < res.Table.NumRows(); r++ {
			sb.WriteString(res.Table.Cols[0].FormatValue(r) + "," + res.Table.Cols[1].FormatValue(r) + ";")
		}
		return sb.String()
	}
	before := table()
	for body, want := range map[string]string{
		"column[0] = 7\n    column.append(1)\n    column[1] = 5\n    column.sort()\n    return column[0] * 1000 + column[1] * 100 + column[2] * 10 + column[3]": "1257",
		"alias = column\n    alias[1] = 9\n    alias.reverse()\n    return column[0] * 100 + column[1] * 10 + column[2]":                                        "293",
		"column.extend(column)\n    return len(column)":                                  "6",
		"for k in range(0, len(column)):\n        column[k] = k\n    return sum(column)": "3",
	} {
		for _, arg := range []string{"i", "f"} {
			mustExec(t, c, "CREATE OR REPLACE FUNCTION scribble(column DOUBLE) RETURNS DOUBLE LANGUAGE PYTHON {\n    "+body+"\n}")
			res := mustExec(t, c, `SELECT scribble(`+arg+`) FROM t`)
			if got := res.Table.Cols[0].FormatValue(0); arg == "i" && got != want {
				t.Errorf("UDF %q over %s returned %s, want %s", body, arg, got, want)
			}
			if after := table(); after != before {
				t.Fatalf("UDF %q over %s wrote through to the table: %s, was %s", body, arg, after, before)
			}
		}
	}
	// A UDF that hands its argument back gets a column of its own too.
	mustExec(t, c, "CREATE FUNCTION same(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return column }")
	res := mustExec(t, c, `SELECT same(i) FROM t`)
	res.Table.Cols[0].Ints[0] = 99
	if after := table(); after != before {
		t.Fatalf("the result of same(i) is the table's own vector: %s, was %s", after, before)
	}
}

// TestGoUDFThroughSQL drives the native GO runtime through the full SQL
// path: registration, columnar call, constant broadcast, tuple-at-a-time
// mode and the empty-input shortcut.
func TestGoUDFThroughSQL(t *testing.T) {
	c := newTestConn()
	if err := c.DB.RegisterGoUDF("go_scale", func(x []int64, f int64) []int64 {
		out := make([]int64, len(x))
		for i, v := range x {
			out[i] = v * f
		}
		return out
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gort.Unregister("go_scale") })
	mustExec(t, c, `CREATE TABLE nums (i INTEGER)`)
	mustExec(t, c, `INSERT INTO nums VALUES (1), (2), (3)`)

	res := mustExec(t, c, `SELECT go_scale(i, 10) AS s FROM nums`)
	if got := intCol(t, res.Table, "s"); len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Fatalf("go_scale: %v", got)
	}

	c.DB.Mode = ModeTupleAtATime
	res = mustExec(t, c, `SELECT go_scale(i, 2) AS s FROM nums`)
	if got := intCol(t, res.Table, "s"); len(got) != 3 || got[1] != 4 {
		t.Fatalf("tuple-mode go_scale: %v", got)
	}
	c.DB.Mode = ModeOperatorAtATime

	mustExec(t, c, `CREATE TABLE empty_n (i INTEGER)`)
	res = mustExec(t, c, `SELECT go_scale(i, 10) FROM empty_n`)
	if rows := res.Table.NumRows(); rows != 0 {
		t.Fatalf("empty input gave %d rows", rows)
	}
}

// TestGoTableUDFThroughSQL: a multi-column native function is a table
// function usable in FROM.
func TestGoTableUDFThroughSQL(t *testing.T) {
	c := newTestConn()
	if err := c.DB.RegisterGoUDF("go_stats", func(x []int64) (int64, int64) {
		lo, hi := x[0], x[0]
		for _, v := range x {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return lo, hi
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gort.Unregister("go_stats") })
	mustExec(t, c, `CREATE TABLE vals (i INTEGER)`)
	mustExec(t, c, `INSERT INTO vals VALUES (5), (1), (9)`)
	res := mustExec(t, c, `SELECT * FROM go_stats((SELECT i FROM vals))`)
	lo := intCol(t, res.Table, "col1")
	hi := intCol(t, res.Table, "col2")
	if len(lo) != 1 || lo[0] != 1 || hi[0] != 9 {
		t.Fatalf("go_stats: lo=%v hi=%v", lo, hi)
	}
}

// TestCreateFunctionGoLanguage: CREATE FUNCTION ... LANGUAGE GO binds the
// declared signature to a pre-registered symbol named in the body, and
// unknown languages are rejected at CREATE with the registered set.
func TestCreateFunctionLanguageDispatch(t *testing.T) {
	c := newTestConn()
	if err := gort.Register("sqtest_impl", func(x []int64) []int64 {
		out := make([]int64, len(x))
		for i, v := range x {
			out[i] = v * v
		}
		return out
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gort.Unregister("sqtest_impl") })
	mustExec(t, c, `CREATE FUNCTION squared(x INTEGER) RETURNS INTEGER LANGUAGE GO {
    sqtest_impl
};`)
	mustExec(t, c, `CREATE TABLE sq_t (i INTEGER)`)
	mustExec(t, c, `INSERT INTO sq_t VALUES (2), (3)`)
	res := mustExec(t, c, `SELECT squared(i) AS s FROM sq_t`)
	if got := intCol(t, res.Table, "s"); got[0] != 4 || got[1] != 9 {
		t.Fatalf("squared: %v", got)
	}

	err := execErr(t, c, `CREATE FUNCTION f(x INTEGER) RETURNS INTEGER LANGUAGE FORTRAN { 1 };`)
	if !strings.Contains(err.Error(), "FORTRAN") || !strings.Contains(err.Error(), "PYTHON") {
		t.Fatalf("unknown-language error should list runtimes: %v", err)
	}
}

// TestGoUDFErrorAndInvalidation: runtime errors surface with the UDF's
// name, and CREATE OR REPLACE invalidates the compiled-callable cache.
func TestGoUDFErrorAndInvalidation(t *testing.T) {
	c := newTestConn()
	if err := c.DB.RegisterGoUDF("go_trouble", func(x []int64) ([]int64, error) {
		return nil, storage.NewColumn("", storage.TInt).AppendValue(struct{}{})
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gort.Unregister("go_trouble") })
	mustExec(t, c, `CREATE TABLE tr_t (i INTEGER)`)
	mustExec(t, c, `INSERT INTO tr_t VALUES (1)`)
	_, err := c.Exec(`SELECT go_trouble(i) FROM tr_t`)
	if err == nil || !strings.Contains(err.Error(), "go_trouble") {
		t.Fatalf("error should carry the UDF name: %v", err)
	}
	// replace the Python way: the cache must recompile under the new body
	mustExec(t, c, `CREATE OR REPLACE FUNCTION go_trouble(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return x
};`)
	res := mustExec(t, c, `SELECT go_trouble(i) AS v FROM tr_t`)
	if got := intCol(t, res.Table, "v"); got[0] != 1 {
		t.Fatalf("replaced UDF: %v", got)
	}
}

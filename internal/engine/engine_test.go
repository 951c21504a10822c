package engine

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

func newTestConn() *Conn {
	db := NewDB()
	db.FS = core.NewMemFS(nil)
	return &Conn{DB: db, User: "monetdb", Password: "monetdb"}
}

func mustExec(t *testing.T, c *Conn, sql string) *Result {
	t.Helper()
	r, err := c.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return r
}

func execErr(t *testing.T, c *Conn, sql string) error {
	t.Helper()
	_, err := c.Exec(sql)
	if err == nil {
		t.Fatalf("Exec(%q) should fail", sql)
	}
	return err
}

func intCol(t *testing.T, tbl *storage.Table, name string) []int64 {
	t.Helper()
	col, err := tbl.Column(name)
	if err != nil {
		t.Fatalf("column %s: %v", name, err)
	}
	return col.Ints
}

func TestCreateInsertSelect(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE numbers (i INTEGER)`)
	mustExec(t, c, `INSERT INTO numbers VALUES (3), (1), (2)`)
	r := mustExec(t, c, `SELECT i FROM numbers ORDER BY i`)
	if got := intCol(t, r.Table, "i"); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("rows: %v", got)
	}
}

func TestSelectExpressionsAndWhere(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE t (i INTEGER, s STRING)`)
	mustExec(t, c, `INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, NULL)`)
	r := mustExec(t, c, `SELECT i * 10 AS x, s FROM t WHERE i > 1 AND i < 4 ORDER BY i DESC`)
	if got := intCol(t, r.Table, "x"); len(got) != 2 || got[0] != 30 || got[1] != 20 {
		t.Fatalf("x: %v", got)
	}
	// NULL comparisons exclude rows
	r = mustExec(t, c, `SELECT i FROM t WHERE s = 'a'`)
	if r.Table.NumRows() != 1 {
		t.Fatalf("rows: %d", r.Table.NumRows())
	}
	r = mustExec(t, c, `SELECT i FROM t WHERE s IS NULL`)
	if got := intCol(t, r.Table, "i"); len(got) != 1 || got[0] != 4 {
		t.Fatalf("is null: %v", got)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	c := newTestConn()
	r := mustExec(t, c, `SELECT 1 + 2 AS three, 'x' AS s, 2.5 * 2 AS five`)
	if got := intCol(t, r.Table, "three"); got[0] != 3 {
		t.Fatalf("three: %v", got)
	}
	f, _ := r.Table.Column("five")
	if f.Flts[0] != 5.0 {
		t.Fatalf("five: %v", f.Flts)
	}
}

func TestAggregatesAndGroupBy(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE sales (region STRING, amount INTEGER)`)
	mustExec(t, c, `INSERT INTO sales VALUES ('n', 10), ('n', 20), ('s', 5), ('s', 7), ('s', 9)`)
	r := mustExec(t, c, `SELECT region, COUNT(*) AS n, SUM(amount) AS total, AVG(amount) AS mean FROM sales GROUP BY region ORDER BY region`)
	if r.Table.NumRows() != 2 {
		t.Fatalf("groups: %d", r.Table.NumRows())
	}
	if got := intCol(t, r.Table, "total"); got[0] != 30 || got[1] != 21 {
		t.Fatalf("totals: %v", got)
	}
	mean, _ := r.Table.Column("mean")
	if mean.Flts[1] != 7.0 {
		t.Fatalf("mean: %v", mean.Flts)
	}
	r = mustExec(t, c, `SELECT MIN(amount), MAX(amount), COUNT(amount) FROM sales`)
	if r.Table.NumRows() != 1 {
		t.Fatalf("ungrouped aggregate rows: %d", r.Table.NumRows())
	}
	if got := r.Table.Cols[0].Ints[0]; got != 5 {
		t.Fatalf("min: %d", got)
	}
	r = mustExec(t, c, `SELECT SUM(amount) / COUNT(*) FROM sales`)
	if got := r.Table.Cols[0].Ints[0]; got != 10 {
		t.Fatalf("sum/count: %d", got)
	}
}

func TestAggregateOverEmptyTable(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE e (i INTEGER)`)
	r := mustExec(t, c, `SELECT COUNT(*) AS n, SUM(i) AS s FROM e`)
	if r.Table.NumRows() != 1 {
		t.Fatalf("rows: %d", r.Table.NumRows())
	}
	if got := intCol(t, r.Table, "n"); got[0] != 0 {
		t.Fatalf("count: %v", got)
	}
	s, _ := r.Table.Column("s")
	if !s.IsNull(0) {
		t.Fatal("SUM over empty should be NULL")
	}
}

func TestCopyInto(t *testing.T) {
	c := newTestConn()
	fs := core.NewMemFS(map[string]string{"data.csv": "1\n2\n3\n"})
	c.DB.FS = fs
	mustExec(t, c, `CREATE TABLE n (i INTEGER)`)
	r := mustExec(t, c, `COPY INTO n FROM 'data.csv'`)
	if r.Msg != "COPY 3" {
		t.Fatalf("msg: %s", r.Msg)
	}
	r = mustExec(t, c, `SELECT SUM(i) FROM n`)
	if r.Table.Cols[0].Ints[0] != 6 {
		t.Fatalf("sum: %v", r.Table.Cols[0].Ints)
	}
}

func TestLimitAndSubquery(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE t (i INTEGER)`)
	mustExec(t, c, `INSERT INTO t VALUES (5), (3), (8), (1)`)
	r := mustExec(t, c, `SELECT i FROM (SELECT i FROM t WHERE i > 2) sub ORDER BY i LIMIT 2`)
	if got := intCol(t, r.Table, "i"); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("rows: %v", got)
	}
	// scalar subquery in expression
	r = mustExec(t, c, `SELECT i FROM t WHERE i = (SELECT MAX(i) FROM t)`)
	if got := intCol(t, r.Table, "i"); len(got) != 1 || got[0] != 8 {
		t.Fatalf("scalar subquery: %v", got)
	}
}

// TestScalarUDFListing4 registers the paper's buggy mean_deviation UDF
// through SQL and evaluates it operator-at-a-time over a full column.
func TestScalarUDFListing4(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE numbers (i INTEGER)`)
	mustExec(t, c, `INSERT INTO numbers VALUES (1), (2), (3), (4), (100)`)
	mustExec(t, c, `CREATE FUNCTION mean_deviation(column INTEGER)
RETURNS DOUBLE LANGUAGE PYTHON {
    mean = 0
    for i in range(0, len(column)):
        mean += column[i]
    mean = mean / len(column)
    distance = 0
    for i in range(0, len(column)):
        distance += column[i] - mean
    deviation = distance / len(column)
    return deviation;
};`)
	r := mustExec(t, c, `SELECT mean_deviation(i) FROM numbers`)
	if r.Table.NumRows() != 1 {
		t.Fatalf("rows: %d", r.Table.NumRows())
	}
	v := r.Table.Cols[0].Flts[0]
	if v > 1e-9 || v < -1e-9 {
		t.Fatalf("buggy deviation should be ~0, got %v", v)
	}
	// fix the bug via CREATE OR REPLACE (the traditional workflow)
	mustExec(t, c, `CREATE OR REPLACE FUNCTION mean_deviation(column INTEGER)
RETURNS DOUBLE LANGUAGE PYTHON {
    mean = 0
    for i in range(0, len(column)):
        mean += column[i]
    mean = mean / len(column)
    distance = 0
    for i in range(0, len(column)):
        distance += abs(column[i] - mean)
    return distance / len(column);
};`)
	r = mustExec(t, c, `SELECT mean_deviation(i) FROM numbers`)
	if got := r.Table.Cols[0].Flts[0]; got != 31.2 {
		t.Fatalf("fixed deviation = %v, want 31.2", got)
	}
}

func TestScalarUDFVectorReturn(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE t (i INTEGER)`)
	mustExec(t, c, `INSERT INTO t VALUES (1), (2), (3)`)
	mustExec(t, c, `CREATE FUNCTION double_it(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    result = []
    for v in x:
        result.append(v * 2)
    return result
}`)
	r := mustExec(t, c, `SELECT double_it(i) AS d, i FROM t`)
	if got := intCol(t, r.Table, "d"); len(got) != 3 || got[2] != 6 {
		t.Fatalf("doubled: %v", got)
	}
	// scalar result broadcast alongside full column
	mustExec(t, c, `CREATE FUNCTION col_sum(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return sum(x)
}`)
	r = mustExec(t, c, `SELECT i, col_sum(i) AS total FROM t`)
	if got := intCol(t, r.Table, "total"); len(got) != 3 || got[0] != 6 || got[2] != 6 {
		t.Fatalf("broadcast: %v", got)
	}
}

// TestTableUDFListing5 runs the paper's buggy CSV loader as a table
// function: the range(0, len-1) bug silently drops the last file.
func TestTableUDFListing5(t *testing.T) {
	c := newTestConn()
	c.DB.FS = core.NewMemFS(map[string]string{
		"csvs/a.csv": "1\n2\n",
		"csvs/b.csv": "3\n",
		"csvs/c.csv": "100\n",
	})
	mustExec(t, c, `CREATE FUNCTION loadNumbers(path STRING)
RETURNS TABLE(i INTEGER)
LANGUAGE PYTHON {
    import os
    files = os.listdir(path)
    result = []
    for i in range(0, len(files) - 1):
        file = open(path + "/" + files[i], "r")
        for line in file:
            result.append(int(line))
    return result
};`)
	r := mustExec(t, c, `SELECT * FROM loadNumbers('csvs')`)
	if got := intCol(t, r.Table, "i"); len(got) != 3 {
		t.Fatalf("buggy loader should skip c.csv: %v", got)
	}
	r = mustExec(t, c, `SELECT SUM(i) AS s FROM loadNumbers('csvs')`)
	if got := intCol(t, r.Table, "s"); got[0] != 6 {
		t.Fatalf("sum: %v", got)
	}
}

// TestNestedUDFListing3 reproduces §2.3: find_best_classifier issues
// loopback queries through _conn, one of which calls the train_rnforest
// UDF — a nested UDF invocation.
func TestNestedUDFListing3(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE trainingset (data DOUBLE, labels INTEGER)`)
	mustExec(t, c, `INSERT INTO trainingset VALUES
		(0.1, 0), (0.2, 0), (0.15, 0), (9.8, 0), (10.1, 0), (10.0, 0),
		(5.0, 1), (5.1, 1), (4.9, 1), (5.05, 1)`)
	mustExec(t, c, `CREATE TABLE testingset (data DOUBLE, labels INTEGER)`)
	mustExec(t, c, `INSERT INTO testingset VALUES
		(0.12, 0), (10.05, 0), (5.02, 1), (4.95, 1), (0.18, 0)`)
	mustExec(t, c, `CREATE FUNCTION train_rnforest(data DOUBLE, labels INTEGER, n_estimators INTEGER)
RETURNS TABLE(clf BLOB, estimators INTEGER) LANGUAGE PYTHON {
    import pickle
    from sklearn.ensemble import RandomForestClassifier
    clf = RandomForestClassifier(n_estimators)
    clf.fit(data, labels)
    return {'clf': pickle.dumps(clf), 'estimators': n_estimators}
};`)
	mustExec(t, c, `CREATE FUNCTION find_best_classifier(esttest INTEGER)
RETURNS TABLE(clf BLOB, n_estimators INTEGER) LANGUAGE PYTHON {
    import pickle
    import numpy
    (tdata, tlabels) = _conn.execute("""SELECT data, labels FROM testingset""")
    best_classifier = None
    best_classifier_answers = -1
    best_estimator = -1
    for estimator in range(1, esttest + 1):
        res = _conn.execute("""
            SELECT * FROM train_rnforest((SELECT data, labels FROM trainingset), %d)
        """ % estimator)
        classifier = pickle.loads(res['clf'])
        predictions = classifier.predict(tdata)
        correct_pred = []
        for i in range(0, len(predictions)):
            correct_pred.append(predictions[i] == tlabels[i])
        correct_ans = numpy.sum(correct_pred)
        if correct_ans > best_classifier_answers:
            best_classifier = classifier
            best_classifier_answers = correct_ans
            best_estimator = estimator
    return {'clf': pickle.dumps(best_classifier), 'n_estimators': best_estimator}
};`)
	r := mustExec(t, c, `SELECT n_estimators FROM find_best_classifier(3)`)
	if r.Table.NumRows() != 1 {
		t.Fatalf("rows: %d", r.Table.NumRows())
	}
	best := intCol(t, r.Table, "n_estimators")[0]
	// class 0 is bimodal (clusters at 0 and 10): one centroid per class
	// cannot beat two.
	if best < 2 {
		t.Fatalf("best n_estimators = %d, expected >= 2", best)
	}
}

func TestTupleAtATimeMode(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE t (i INTEGER)`)
	mustExec(t, c, `INSERT INTO t VALUES (1), (2), (3)`)
	mustExec(t, c, `CREATE FUNCTION inc(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return x + 1
}`)
	c.DB.Mode = ModeTupleAtATime
	r := mustExec(t, c, `SELECT inc(i) AS j FROM t`)
	if got := intCol(t, r.Table, "j"); len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("tuple mode: %v", got)
	}
	// The same function body works in both modes when written per-row;
	// operator mode passes the whole column, so x + 1 fails on a list.
	c.DB.Mode = ModeOperatorAtATime
	if _, err := c.Exec(`SELECT inc(i) FROM t`); err == nil {
		t.Fatal("operator mode passes a list; x + 1 should fail")
	}
}

func TestUDFRuntimeErrorSurfacesAsSQLError(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE t (i INTEGER)`)
	mustExec(t, c, `INSERT INTO t VALUES (1)`)
	mustExec(t, c, `CREATE FUNCTION boom(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return unknown_variable
}`)
	err := execErr(t, c, `SELECT boom(i) FROM t`)
	if !strings.Contains(err.Error(), "unknown_variable") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err: %v", err)
	}
	if core.KindOf(err) != core.KindRuntime {
		t.Fatalf("kind: %v", core.KindOf(err))
	}
}

func TestUDFSyntaxErrorAtCallTime(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE FUNCTION bad(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    if x
        return 1
}`)
	mustExec(t, c, `CREATE TABLE t (i INTEGER)`)
	mustExec(t, c, `INSERT INTO t VALUES (1)`)
	err := execErr(t, c, `SELECT bad(i) FROM t`)
	if core.KindOf(err) != core.KindSyntax {
		t.Fatalf("kind: %v (%v)", core.KindOf(err), err)
	}
}

func TestSysFunctionsThroughSQL(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE FUNCTION f1(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return x }`)
	mustExec(t, c, `CREATE FUNCTION f2(y DOUBLE) RETURNS DOUBLE LANGUAGE PYTHON { return y }`)
	r := mustExec(t, c, `SELECT name, func FROM sys.functions ORDER BY name`)
	names, _ := r.Table.Column("name")
	if len(names.Strs) != 2 || names.Strs[0] != "f1" || names.Strs[1] != "f2" {
		t.Fatalf("names: %v", names.Strs)
	}
	r = mustExec(t, c, `SELECT name FROM sys.functions WHERE name = 'f2'`)
	if r.Table.NumRows() != 1 {
		t.Fatalf("filtered meta query: %d rows", r.Table.NumRows())
	}
}

func TestExtractFunction(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE numbers (i INTEGER)`)
	mustExec(t, c, `INSERT INTO numbers VALUES (1), (2), (3), (4), (5)`)
	mustExec(t, c, `CREATE FUNCTION mean_deviation(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {
    return 0.0
}`)
	r := mustExec(t, c, `SELECT * FROM sys_extract('mean_deviation', 'c=0;e=0;s=0;r=0', (SELECT i FROM numbers))`)
	if r.Table.NumRows() != 1 {
		t.Fatalf("rows: %d", r.Table.NumRows())
	}
	payload, _ := r.Table.Column("payload")
	udf, params, total, sample, err := DecodeExtractPayload(payload.Blobs[0], c.Password)
	if err != nil {
		t.Fatal(err)
	}
	if udf != "mean_deviation" || total != 5 || sample != 5 {
		t.Fatalf("envelope: %s %d %d", udf, total, sample)
	}
	colV, ok := params.GetStr("column")
	if !ok {
		t.Fatal("params missing 'column'")
	}
	if colV.Repr() != "[1, 2, 3, 4, 5]" {
		t.Fatalf("column data: %s", colV.Repr())
	}
}

func TestExtractWithSampleCompressEncrypt(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE numbers (i INTEGER)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO numbers VALUES (0)`)
	for i := 1; i < 100; i++ {
		sb.WriteString(", (")
		sb.WriteString(strings.Repeat("", 0))
		sb.WriteString(itoa(i))
		sb.WriteString(")")
	}
	mustExec(t, c, sb.String())
	mustExec(t, c, `CREATE FUNCTION f(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON { return 0.0 }`)
	r := mustExec(t, c, `SELECT * FROM sys_extract('f', 'c=1;e=1;s=10;r=42', (SELECT i FROM numbers))`)
	compressed, _ := r.Table.Column("compressed")
	encrypted, _ := r.Table.Column("encrypted")
	sampleRows, _ := r.Table.Column("sample_rows")
	totalRows, _ := r.Table.Column("total_rows")
	if !compressed.Bools[0] || !encrypted.Bools[0] {
		t.Fatal("flags should be set")
	}
	if totalRows.Ints[0] != 100 || sampleRows.Ints[0] != 10 {
		t.Fatalf("rows: total=%d sample=%d", totalRows.Ints[0], sampleRows.Ints[0])
	}
	payload, _ := r.Table.Column("payload")
	// wrong password fails to decode
	if _, _, _, _, err := DecodeExtractPayload(payload.Blobs[0], "wrong-password"); err == nil {
		t.Fatal("wrong password should fail to unpack")
	}
	_, params, _, _, err := DecodeExtractPayload(payload.Blobs[0], c.Password)
	if err != nil {
		t.Fatal(err)
	}
	colV, _ := params.GetStr("column")
	if !strings.HasPrefix(colV.Repr(), "[") || strings.Count(colV.Repr(), ",") != 9 {
		t.Fatalf("sampled column should have 10 values: %s", colV.Repr())
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestPrintDebuggingDiscardedByDefault(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE t (i INTEGER)`)
	mustExec(t, c, `INSERT INTO t VALUES (1), (2)`)
	mustExec(t, c, `CREATE FUNCTION noisy(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    print("debugging", len(x))
    return sum(x)
}`)
	mustExec(t, c, `SELECT noisy(i) FROM t`)
}

func TestUDFPrintCapture(t *testing.T) {
	c := newTestConn()
	var out bytes.Buffer
	mustExec(t, c, `CREATE TABLE t (i INTEGER)`)
	mustExec(t, c, `INSERT INTO t VALUES (7)`)
	mustExec(t, c, `CREATE FUNCTION p(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    print("value is", x)
    return x
}`)
	if _, err := c.ExecWith(ExecOpts{Stdout: &out}, `SELECT p(i) FROM t`); err != nil {
		t.Fatal(err)
	}
	// a column argument arrives as a list even with one row
	if got := out.String(); !strings.Contains(got, "value is [7]") {
		t.Fatalf("print output: %q", got)
	}
}

func TestErrorPaths(t *testing.T) {
	c := newTestConn()
	execErr(t, c, `SELECT * FROM missing`)
	execErr(t, c, `SELECT missing_fn(1)`)
	execErr(t, c, `INSERT INTO missing VALUES (1)`)
	execErr(t, c, `DROP TABLE missing`)
	execErr(t, c, `DROP FUNCTION missing`)
	mustExec(t, c, `CREATE TABLE t (i INTEGER)`)
	execErr(t, c, `CREATE TABLE t (i INTEGER)`)
	execErr(t, c, `INSERT INTO t VALUES (1, 2)`)
	execErr(t, c, `SELECT i FROM t WHERE j > 0`)
	execErr(t, c, `COPY INTO t FROM 'missing.csv'`)
	execErr(t, c, `CREATE FUNCTION sys_extract(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return x }`)
	execErr(t, c, `CREATE FUNCTION sum(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return x }`)
}

func TestDropFunctionInvalidatesCache(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE t (i INTEGER)`)
	mustExec(t, c, `INSERT INTO t VALUES (1)`)
	mustExec(t, c, `CREATE FUNCTION g(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return 1 }`)
	mustExec(t, c, `SELECT g(i) FROM t`)
	mustExec(t, c, `DROP FUNCTION g`)
	execErr(t, c, `SELECT g(i) FROM t`)
	mustExec(t, c, `CREATE FUNCTION g(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return 2 }`)
	r := mustExec(t, c, `SELECT g(i) FROM t`)
	if r.Table.Cols[0].Ints[0] != 2 {
		t.Fatalf("stale compiled UDF: %v", r.Table.Cols[0].Ints)
	}
}

func TestExecAllScript(t *testing.T) {
	c := newTestConn()
	results, err := c.ExecAll(`
CREATE TABLE t (i INTEGER);
INSERT INTO t VALUES (1), (2);
SELECT SUM(i) AS s FROM t;
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results: %d", len(results))
	}
	if got := intCol(t, results[2].Table, "s"); got[0] != 3 {
		t.Fatalf("sum: %v", got)
	}
}

func TestOrderByNullsAndCast(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE t (i INTEGER)`)
	mustExec(t, c, `INSERT INTO t VALUES (2), (NULL), (1)`)
	r := mustExec(t, c, `SELECT i FROM t ORDER BY i`)
	col, _ := r.Table.Column("i")
	if !col.IsNull(0) || col.Ints[1] != 1 || col.Ints[2] != 2 {
		t.Fatalf("nulls-first order: %v nulls=%v", col.Ints, col.Nulls)
	}
	r = mustExec(t, c, `SELECT CAST(i AS DOUBLE) AS d FROM t WHERE i IS NOT NULL ORDER BY 1`)
	d, _ := r.Table.Column("d")
	if d.Typ != storage.TFloat || d.Flts[0] != 1.0 {
		t.Fatalf("cast: %v %v", d.Typ, d.Flts)
	}
}

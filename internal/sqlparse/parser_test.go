package sqlparse

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

func parseOne(t *testing.T, sql string) Statement {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return st
}

func TestCreateTable(t *testing.T) {
	st := parseOne(t, `CREATE TABLE numbers (i INTEGER, name STRING, f DOUBLE)`)
	ct, ok := st.(*CreateTable)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if ct.Name != "numbers" || len(ct.Schema) != 3 {
		t.Fatalf("%+v", ct)
	}
	if ct.Schema[0].Type != storage.TInt || ct.Schema[2].Type != storage.TFloat {
		t.Fatalf("types: %+v", ct.Schema)
	}
}

func TestCreateFunctionScalar(t *testing.T) {
	sql := `CREATE FUNCTION mean_deviation(column INTEGER)
RETURNS DOUBLE LANGUAGE PYTHON {
    mean = 0
    for i in range(0, len(column)):
        mean += column[i]
    return mean
};`
	st := parseOne(t, sql)
	cf, ok := st.(*CreateFunction)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if cf.Name != "mean_deviation" || cf.IsTable || cf.Language != "PYTHON" {
		t.Fatalf("%+v", cf)
	}
	if len(cf.Params) != 1 || cf.Params[0].Name != "column" || cf.Params[0].Type != storage.TInt {
		t.Fatalf("params: %+v", cf.Params)
	}
	if cf.Returns[0].Type != storage.TFloat {
		t.Fatalf("returns: %+v", cf.Returns)
	}
	if !strings.HasPrefix(cf.Body, "mean = 0") {
		t.Fatalf("body should be dedented, got %q", cf.Body)
	}
	if !strings.Contains(cf.Body, "for i in range(0, len(column)):") {
		t.Fatalf("body content: %q", cf.Body)
	}
}

func TestCreateFunctionTable(t *testing.T) {
	sql := `CREATE OR REPLACE FUNCTION loadNumbers(path STRING)
RETURNS TABLE(i INTEGER) LANGUAGE PYTHON { return [1] };`
	cf := parseOne(t, sql).(*CreateFunction)
	if !cf.OrReplace || !cf.IsTable {
		t.Fatalf("%+v", cf)
	}
	if len(cf.Returns) != 1 || cf.Returns[0].Name != "i" {
		t.Fatalf("returns: %+v", cf.Returns)
	}
}

func TestCreateFunctionBodyWithBracesAndStrings(t *testing.T) {
	sql := `CREATE FUNCTION f(x INTEGER) RETURNS BLOB LANGUAGE PYTHON {
    d = {'clf': 1, 'estimators': 2}
    s = "}}}"
    q = """SELECT * FROM t WHERE x = '}'"""
    return d
}`
	cf := parseOne(t, sql).(*CreateFunction)
	if !strings.Contains(cf.Body, "'clf': 1") || !strings.Contains(cf.Body, `"}}}"`) {
		t.Fatalf("body: %q", cf.Body)
	}
}

func TestCreateFunctionAcceptsAnyLanguage(t *testing.T) {
	// The grammar is language-agnostic: validation against the registered
	// UDF runtimes happens in the engine at CREATE time, so new runtimes
	// need no parser change.
	for _, lang := range []string{"PYTHON", "GO", "r"} {
		st, err := Parse(`CREATE FUNCTION f(x INTEGER) RETURNS INTEGER LANGUAGE ` + lang + ` { 1 }`)
		if err != nil {
			t.Fatalf("LANGUAGE %s: %v", lang, err)
		}
		cf := st.(*CreateFunction)
		if cf.Language != strings.ToUpper(lang) {
			t.Fatalf("LANGUAGE %s parsed as %q", lang, cf.Language)
		}
	}
}

func TestInsert(t *testing.T) {
	st := parseOne(t, `INSERT INTO t VALUES (1, 'a', 2.5), (2, NULL, -3.0)`)
	ins := st.(*Insert)
	if ins.Table != "t" || len(ins.Rows) != 2 || len(ins.Rows[0]) != 3 {
		t.Fatalf("%+v", ins)
	}
	if _, ok := ins.Rows[1][1].(*NullLit); !ok {
		t.Fatalf("NULL literal: %T", ins.Rows[1][1])
	}
	if u, ok := ins.Rows[1][2].(*UnaryExpr); !ok || u.Op != "-" {
		t.Fatalf("negative literal: %T", ins.Rows[1][2])
	}
}

func TestCopyInto(t *testing.T) {
	ci := parseOne(t, `COPY INTO numbers FROM '/data/file.csv' WITH HEADER`).(*CopyInto)
	if ci.Table != "numbers" || ci.Path != "/data/file.csv" || !ci.Header {
		t.Fatalf("%+v", ci)
	}
	ci2 := parseOne(t, `COPY INTO n FROM 'x.csv'`).(*CopyInto)
	if ci2.Header {
		t.Fatal("header should default to false")
	}
}

func TestSelectBasic(t *testing.T) {
	sel := parseOne(t, `SELECT i, i * 2 AS double_i FROM numbers WHERE i > 3 ORDER BY i DESC LIMIT 10`).(*Select)
	if len(sel.Items) != 2 || sel.Items[1].Alias != "double_i" {
		t.Fatalf("items: %+v", sel.Items)
	}
	ft, ok := sel.From.(*FromTable)
	if !ok || ft.Name != "numbers" {
		t.Fatalf("from: %+v", sel.From)
	}
	if sel.Where == nil || sel.Limit != 10 || len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Fatalf("clauses: %+v", sel)
	}
}

func TestSelectStar(t *testing.T) {
	sel := parseOne(t, `SELECT * FROM sys.functions`).(*Select)
	if !sel.Items[0].Star {
		t.Fatal("star item")
	}
	if sel.From.(*FromTable).Name != "sys.functions" {
		t.Fatalf("meta table name: %+v", sel.From)
	}
}

func TestSelectUDFOverColumn(t *testing.T) {
	sel := parseOne(t, `SELECT mean_deviation(i) FROM numbers`).(*Select)
	call, ok := sel.Items[0].Expr.(*FuncCall)
	if !ok || call.Name != "mean_deviation" || len(call.Args) != 1 {
		t.Fatalf("%+v", sel.Items[0].Expr)
	}
}

func TestSelectTableFunctionInFrom(t *testing.T) {
	sel := parseOne(t, `SELECT * FROM loadNumbers('/tmp/csvs')`).(*Select)
	ff, ok := sel.From.(*FromFunc)
	if !ok || ff.Call.Name != "loadNumbers" {
		t.Fatalf("%+v", sel.From)
	}
	if _, ok := ff.Call.Args[0].(*StrLit); !ok {
		t.Fatalf("arg: %T", ff.Call.Args[0])
	}
}

// TestPaperNestedCallShape parses the query shape from Listing 3: a UDF in
// FROM whose first argument is a table-valued subquery.
func TestPaperNestedCallShape(t *testing.T) {
	sql := `SELECT * FROM train_rnforest((SELECT data, labels FROM trainingset), 5)`
	sel := parseOne(t, sql).(*Select)
	ff := sel.From.(*FromFunc)
	if len(ff.Call.Args) != 2 {
		t.Fatalf("args: %d", len(ff.Call.Args))
	}
	sub, ok := ff.Call.Args[0].(*Subquery)
	if !ok {
		t.Fatalf("first arg: %T", ff.Call.Args[0])
	}
	if len(sub.Sel.Items) != 2 {
		t.Fatalf("subquery items: %+v", sub.Sel.Items)
	}
	if _, ok := ff.Call.Args[1].(*IntLit); !ok {
		t.Fatalf("second arg: %T", ff.Call.Args[1])
	}
}

func TestSelectFromSubquery(t *testing.T) {
	sel := parseOne(t, `SELECT x FROM (SELECT i AS x FROM t) sub WHERE x < 5`).(*Select)
	fs, ok := sel.From.(*FromSelect)
	if !ok || fs.Alias != "sub" {
		t.Fatalf("%+v", sel.From)
	}
}

func TestAggregates(t *testing.T) {
	sel := parseOne(t, `SELECT COUNT(*), SUM(i), AVG(i), MIN(i), MAX(i) FROM t GROUP BY g`).(*Select)
	if len(sel.Items) != 5 || len(sel.GroupBy) != 1 {
		t.Fatalf("%+v", sel)
	}
	if !sel.Items[0].Expr.(*FuncCall).Star {
		t.Fatal("COUNT(*)")
	}
}

func TestExpressionPrecedence(t *testing.T) {
	sel := parseOne(t, `SELECT 1 + 2 * 3`).(*Select)
	b := sel.Items[0].Expr.(*BinaryExpr)
	if b.Op != "+" {
		t.Fatalf("top op %s", b.Op)
	}
	if b.R.(*BinaryExpr).Op != "*" {
		t.Fatal("* should bind tighter")
	}
	sel2 := parseOne(t, `SELECT a AND b OR NOT c`).(*Select)
	top := sel2.Items[0].Expr.(*BinaryExpr)
	if top.Op != "OR" {
		t.Fatalf("top %s", top.Op)
	}
}

func TestIsNullAndCast(t *testing.T) {
	sel := parseOne(t, `SELECT CAST(i AS DOUBLE) FROM t WHERE s IS NOT NULL`).(*Select)
	if _, ok := sel.Items[0].Expr.(*CastExpr); !ok {
		t.Fatalf("cast: %T", sel.Items[0].Expr)
	}
	isn, ok := sel.Where.(*IsNullExpr)
	if !ok || !isn.Neg {
		t.Fatalf("where: %+v", sel.Where)
	}
}

func TestStringEscapes(t *testing.T) {
	sel := parseOne(t, `SELECT 'it''s fine'`).(*Select)
	if sel.Items[0].Expr.(*StrLit).Value != "it's fine" {
		t.Fatalf("%+v", sel.Items[0].Expr)
	}
}

func TestParseAllScript(t *testing.T) {
	stmts, err := ParseAll(`
CREATE TABLE t (i INTEGER);
INSERT INTO t VALUES (1);
-- a comment
SELECT * FROM t;
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("stmts: %d", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`SELEKT 1`,
		`CREATE TABLE`,
		`CREATE TABLE t (i BADTYPE)`,
		`CREATE FUNCTION f() RETURNS INTEGER LANGUAGE PYTHON`,     // missing body
		`CREATE FUNCTION f() RETURNS INTEGER LANGUAGE PYTHON { x`, // unterminated body
		`INSERT INTO t VALUES 1`,
		`SELECT FROM t`,
		`SELECT * FROM t WHERE`,
		`SELECT * FROM t LIMIT x`,
		`COPY INTO t FROM missing_quotes`,
		`SELECT 'unterminated`,
		`SELECT 1; SELECT 2 extra_token`,
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

// TestSyntaxErrorsNameTheirPlace: a syntax error ends with the line and
// column of the token it is about, counting columns in runes (a tab is
// one, so is a multi-byte rune) and placing the end of the text one past
// its last rune.
func TestSyntaxErrorsNameTheirPlace(t *testing.T) {
	for _, tc := range []struct {
		what, sql string
		line, col int
	}{
		{"start of a line", "SELECT i\nFROM t\n) WHERE i > 2", 3, 1},
		{"middle of a line", "SELECT i\nFROM t\nWHERE i >> 2", 3, 10},
		{"end of a line", "SELECT i\nFROM t WHERE (i > 2))\nORDER BY i", 2, 21},
		{"after a tab", "SELECT i\nFROM t\n\tWHERE i >> 2", 3, 11},
		{"after a multi-byte rune", "SELECT 'h\u00e9llo' >> 1", 1, 17},
		{"at EOF", "SELECT i\nFROM t\nWHERE", 3, 6},
		{"at EOF after a multi-byte rune", "SELECT '\u00e9' ||", 1, 14},
		{"lexing", "SELECT 1,\n  # 2", 2, 3},
		{"unknown type", "CREATE TABLE t (\n  i BADTYPE)", 2, 5},
		{"bad LIMIT", "SELECT i FROM t\nLIMIT 99999999999999999999", 2, 7},
		{"dense placeholders", "SELECT $1,\n  $3", 2, 3},
		{"a second statement", "SELECT 1; SELECT 2", 1, 11},
	} {
		_, err := Parse(tc.sql)
		want := fmt.Sprintf(" at line %d, column %d", tc.line, tc.col)
		if core.KindOf(err) != core.KindSyntax || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("%s: Parse(%q) = %v; want a syntax error ending %q", tc.what, tc.sql, err, want)
		}
	}
}

func TestParseListing4Verbatim(t *testing.T) {
	// The paper's Listing 4, byte for byte (modulo the mean/median typo in
	// the caption — the function is mean_deviation).
	sql := `CREATE FUNCTION mean_deviation(column INTEGER)
RETURNS DOUBLE LANGUAGE PYTHON {
    mean = 0
    for i in range (0, len(column)):
        mean += column[i]
    mean = mean / len(column)
    distance = 0
    for i in range (0, len(column)):
        distance += column[i] - mean
    deviation = distance/len(column)
    return deviation;
};`
	cf := parseOne(t, sql).(*CreateFunction)
	if cf.Name != "mean_deviation" {
		t.Fatalf("name: %s", cf.Name)
	}
	if !strings.Contains(cf.Body, "deviation = distance/len(column)") {
		t.Fatalf("body: %q", cf.Body)
	}
}

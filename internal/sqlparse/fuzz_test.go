package sqlparse

import (
	"bytes"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

var sqlFuzzSeeds = []string{
	"",
	"SELECT 1",
	"SELECT i, j FROM t WHERE i > 3 ORDER BY j DESC LIMIT 5",
	"SELECT mean_deviation(i) FROM numbers",
	"SELECT * FROM loadNumbers('/data') AS t",
	"SELECT count(*), sum(i) FROM t GROUP BY j",
	"CREATE TABLE numbers (i INTEGER, s STRING, f DOUBLE, b BOOLEAN)",
	"DROP TABLE numbers",
	"INSERT INTO t VALUES (1, 'a'), (-2, 'b')",
	"COPY INTO t FROM '/tmp/x.csv'",
	`CREATE FUNCTION f(a INTEGER) RETURNS DOUBLE LANGUAGE PYTHON { return a * 2 };`,
	`CREATE OR REPLACE FUNCTION g(x DOUBLE, y DOUBLE) RETURNS TABLE(a DOUBLE) LANGUAGE PYTHON { return {'a': x} };`,
	"DROP FUNCTION f",
	"SELECT 'it''s' || 'quoted'",
	"SELECT (1 + 2) * -3 AS v",
	"SELECT CAST(i AS DOUBLE) FROM t",
	"SELECT sys_extract('f', 'q', 'o', 'p') ",
	"select distinct i from t;",
	"SELECT\n\ti\nFROM t -- comment",
	"SELECT \x00",
	// placeholders: positional and numbered, in expressions, WHERE
	// conjuncts, and UDF call arguments
	"SELECT ?",
	"SELECT i FROM t WHERE i > ? AND s = ?",
	"SELECT mean_deviation(?, i) FROM numbers WHERE i < $0",
	"SELECT $1 + $2 FROM t WHERE i = $1",
	"SELECT $12, $3 FROM t",
	"INSERT INTO t VALUES (?, ?)",
	"SELECT ? + $1",
	"SELECT f($2) FROM g($1) WHERE i IS NOT NULL",
}

// FuzzParseFormat asserts the SQL lexer/parser never panic and that the
// printer is stable: Format(Parse(sql)) must reparse, and reformatting the
// reparse must be a fixed point. devUDF's export path (CREATE OR REPLACE
// FUNCTION built through the AST printer) relies on exactly this property.
func FuzzParseFormat(f *testing.F) {
	for _, seed := range sqlFuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := Parse(sql)
		if err != nil {
			if _, err2 := Parse(sql); err2 == nil || err.Error() != err2.Error() {
				t.Fatalf("nondeterministic parse error: %v vs %v", err, err2)
			}
			return
		}
		out1 := Format(st)
		st2, err := Parse(out1)
		if err != nil {
			t.Fatalf("formatted statement does not reparse: %q: %v", out1, err)
		}
		out2 := Format(st2)
		if out1 != out2 {
			t.Fatalf("format not a fixed point:\n first: %q\nsecond: %q", out1, out2)
		}
	})
}

// TestQuotedIdentRoundTrip pins the quoting contract the fuzzers rely on:
// reserved words and odd names are representable via "quoted" identifiers,
// survive Format → Parse → Format, and bare reserved words are rejected
// with a hint.
func TestQuotedIdentRoundTrip(t *testing.T) {
	for _, sql := range []string{
		`SELECT "select" FROM "from"`,
		`SELECT "order" AS "group" FROM t`,
		`SELECT ""`,
		`SELECT "we""ird" FROM t`,
		`CREATE TABLE "table" ("null" INTEGER)`,
	} {
		st, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		out := Format(st)
		st2, err := Parse(out)
		if err != nil {
			t.Fatalf("%s: formatted %q does not reparse: %v", sql, out, err)
		}
		if out2 := Format(st2); out2 != out {
			t.Fatalf("%s: not a fixed point: %q vs %q", sql, out, out2)
		}
	}
	if _, err := Parse(`SELECT select FROM t`); err == nil {
		t.Fatal("bare reserved word should be rejected")
	}
	// a quoted identifier containing a dot is ONE column reference, never
	// a table qualification (fuzz-found: `SELECT".."` split on the dot)
	st, err := Parse(`SELECT "a.b" FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	ref, ok := st.(*Select).Items[0].Expr.(*ColRef)
	if !ok || ref.Table != "" || ref.Name != "a.b" {
		t.Fatalf("quoted dotted name mis-split: %+v", ref)
	}
}

// FuzzParseAll asserts the multi-statement splitter (init scripts, ExecAll)
// never panics and agrees with itself.
func FuzzParseAll(f *testing.F) {
	for _, seed := range sqlFuzzSeeds {
		f.Add(seed)
	}
	f.Add("SELECT 1; SELECT 2;\nCREATE TABLE t (i INTEGER);")
	f.Add("; ;;")
	f.Fuzz(func(t *testing.T, sql string) {
		stmts, err := ParseAll(sql)
		if err != nil {
			return
		}
		for _, st := range stmts {
			out := Format(st)
			if _, err := Parse(out); err != nil {
				t.Fatalf("formatted statement does not reparse: %q: %v", out, err)
			}
		}
	})
}

// differentialCorpus reads the engine's differential queries out of the
// source of the test that runs them, so the shape fuzzer starts from every
// query the oracle checks without a copy to keep in step.
func differentialCorpus(f *testing.F) []string {
	f.Helper()
	file, err := goparser.ParseFile(gotoken.NewFileSet(), "../engine/vectorized_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	var out []string
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || spec.Names[0].Name != "differentialQueries" {
			return true
		}
		for _, e := range spec.Values[0].(*ast.CompositeLit).Elts {
			q, err := strconv.Unquote(e.(*ast.BasicLit).Value)
			if err != nil {
				f.Fatal(err)
			}
			out = append(out, q)
		}
		return false
	})
	if len(out) == 0 {
		f.Fatal("no differentialQueries in ../engine/vectorized_test.go")
	}
	return out
}

// extractArgs is the engine's syntax-argument rule: sys_extract's UDF name
// and options are syntax.
func extractArgs(call *FuncCall) int {
	if strings.EqualFold(call.Name, "sys_extract") {
		return 2
	}
	return 0
}

// unbind puts shaped literals back in place of the placeholders
// Parameterize lifted them into.
func unbind(t *testing.T, st Statement, slots []int, lits []Lit) string {
	t.Helper()
	own := NumParams(st)
	vals := map[int]Expr{}
	for i, s := range slots {
		if s < 0 {
			continue
		}
		switch l := lits[i]; l.Kind {
		case storage.TInt:
			n, err := strconv.ParseInt(l.Text, 10, 64)
			if err != nil {
				t.Fatalf("bound INTEGER literal %q does not convert", l.Text)
			}
			vals[s] = &IntLit{Value: n}
		case storage.TFloat:
			f, err := strconv.ParseFloat(l.Text, 64)
			if err != nil {
				t.Fatalf("bound DOUBLE literal %q does not convert", l.Text)
			}
			vals[s] = &FloatLit{Value: f}
		default:
			vals[s] = &StrLit{Value: l.Text}
		}
		own--
	}
	Edit(st, func(e Expr) (Expr, bool) {
		if ph, ok := e.(*Placeholder); ok && ph.Index >= own {
			return vals[ph.Index], true
		}
		return e, true
	})
	return Format(st)
}

// sameErr requires two errors to agree in kind and text.
func sameErr(t *testing.T, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && (got.Error() != want.Error() || core.KindOf(got) != core.KindOf(want))) {
		t.Fatalf("%s: error %v, Parse says %v", what, got, want)
	}
}

// revalued rewrites every literal of sql that Parameterize bound to another
// value of the same kind, keeping the pinned ones: a text of the same shape.
// A number keeps its spelling with each digit lowered (so it neither
// overflows nor lexes apart), a string becomes z's, quote escaped.
func revalued(sql string, slots []int) string {
	lx := &lexer{src: sql}
	var b strings.Builder
	last, n := 0, 0
	for {
		t, err := lx.scan()
		if err != nil || t.kind == tEOF {
			break
		}
		if t.kind != tNumber && t.kind != tString {
			continue
		}
		if slots[n] >= 0 {
			b.WriteString(sql[last:t.pos])
			if t.kind == tString {
				b.WriteString("'z''s'")
			} else {
				b.WriteString(strings.Map(func(r rune) rune {
					if r > '0' && r <= '9' {
						return r - 1
					}
					return r
				}, t.lit))
			}
			last = lx.pos
		}
		n++
	}
	return b.String() + sql[last:]
}

// FuzzShapeAgreesWithParse holds the plan cache's rule to the parser: for
// any text, shaping fails exactly when lexing does; Parameterize succeeds or
// fails exactly as Parse does; its statement with the shape's literals put
// back formats as Parse's; and a text of the same shape with other values
// in the bound slots has an equal key, and the first text's plan with the
// second text's literals formats as the second text's parse.
func FuzzShapeAgreesWithParse(f *testing.F) {
	for _, seed := range append(differentialCorpus(f), sqlFuzzSeeds...) {
		f.Add(seed)
	}
	f.Add("SELECT * FROM sys_extract('f', 'c=1;e=0', (SELECT i FROM t WHERE i > 2), 5) ORDER BY 1 LIMIT 3")
	f.Add("SELECT -9223372036854775808, 1e999, 1.2.3, 'it''s', \"a\"\"b\" FROM t;; ")
	f.Fuzz(func(t *testing.T, sql string) {
		want, errP := Parse(sql)
		var sh Shape
		if err := sh.Scan(sql); err != nil {
			sameErr(t, "Shape", err, errP)
			return
		}
		st, slots, err := Parameterize(sql, extractArgs)
		sameErr(t, "Parameterize", err, errP)
		if err != nil {
			return
		}
		if len(slots) != len(sh.Lits) {
			t.Fatalf("%d literal slots, %d shaped literals", len(slots), len(sh.Lits))
		}
		if got := unbind(t, st, slots, sh.Lits); got != Format(want) {
			t.Fatalf("shape plus binds formats as\n%q\nParse as\n%q", got, Format(want))
		}

		other := revalued(sql, slots)
		want2, err := Parse(other)
		if err != nil {
			t.Fatalf("%q parses, %q of the same shape does not: %v", sql, other, err)
		}
		var sh2 Shape
		if err := sh2.Scan(other); err != nil || !bytes.Equal(sh2.Key, sh.Key) {
			t.Fatalf("%q and %q shape apart (%v)", sql, other, err)
		}
		st, slots, _ = Parameterize(sql, extractArgs)
		if got := unbind(t, st, slots, sh2.Lits); got != Format(want2) {
			t.Fatalf("the plan of %q with the literals of %q formats as\n%q\nParse as\n%q", sql, other, got, Format(want2))
		}
	})
}

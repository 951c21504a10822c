package transform_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pickle"
	"repro/internal/script"
	"repro/internal/transfer"
	"repro/internal/transform"
)

// Each test here pins one transformation that used to go wrong without an
// error: the caller got a wrong answer, not a failure.

func isMyUDF(name string) bool { return strings.EqualFold(name, "myudf") }

func newConn() *engine.Conn {
	c := &engine.Conn{DB: engine.NewDB(), User: "monetdb", Password: "monetdb"}
	c.DB.FS = core.NewMemFS(nil)
	return c
}

// A UDF called in HAVING is a call of the query like any other.
func TestHavingCallIsFound(t *testing.T) {
	sql := "SELECT g, count(*) FROM t GROUP BY g HAVING myudf(g) > 0"
	names, err := transform.FindUDFCalls(sql, isMyUDF)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"myudf"}) {
		t.Errorf("FindUDFCalls = %v, want [myudf]", names)
	}
	out, err := transform.RewriteToExtract(sql, "myudf", transfer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "HAVING (sys_extract('myudf'") {
		t.Fatalf("HAVING call not rewritten: %s", out)
	}
}

// An argument that reads a column only below IS NULL still needs the
// query's FROM and WHERE: the rewritten extract must run where the
// original query runs.
func TestRewriteKeepsSourceOfIsNullArgument(t *testing.T) {
	sql := "SELECT myudf(i IS NULL) FROM t WHERE i > 0"
	out, err := transform.RewriteToExtract(sql, "myudf", transfer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := "(SELECT (i IS NULL) FROM t WHERE (i > 0))"; !strings.Contains(out, want) {
		t.Errorf("rewritten: %s\nwant the argument as %s", out, want)
	}
	c := newConn()
	for _, stmt := range []string{
		"CREATE TABLE t (i INTEGER)",
		"INSERT INTO t VALUES (1), (2), (3)",
		"CREATE FUNCTION myudf(b BOOLEAN) RETURNS INTEGER LANGUAGE PYTHON {\nreturn len(b)\n}",
		sql,
	} {
		if _, err := c.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	r, err := c.Exec(out)
	if err != nil {
		t.Fatalf("rewritten query %s: %v", out, err)
	}
	rows, _ := r.Table.Column("total_rows")
	if rows.Ints[0] != 3 {
		t.Fatalf("extract shipped %d rows, want 3", rows.Ints[0])
	}
}

// The query of a loopback call is the string the interpreter would pass:
// escapes decoded, comments ignored.
func TestLoopbackQueriesReadTheTokens(t *testing.T) {
	isNested := func(name string) bool { return strings.EqualFold(name, "nested") }
	for _, tc := range []struct {
		name, body string
		want       []string
	}{
		{"escaped quote", `r = _conn.execute('SELECT \'a\' AS s, nested(i) FROM t')`, []string{"nested"}},
		{"comment", "# _conn.execute(\"SELECT nested(i) FROM t\")\nreturn 1", nil},
		{"%i placeholder", `r = _conn.execute("SELECT * FROM nested((SELECT i FROM t), %i)" % k)`, []string{"nested"}},
		{"%5d placeholder", `r = _conn.execute("SELECT * FROM nested((SELECT i FROM t), %5d)" % k)`, []string{"nested"}},
	} {
		if got := transform.FindLoopbackUDFs(tc.body, isNested); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: FindLoopbackUDFs = %q (queries %q), want %q", tc.name, got, transform.LoopbackQueries(tc.body), tc.want)
		}
	}
}

// A line of the body that starts at column 0 inside a string does not end
// the function on export.
func TestExtractBodyKeepsColumnZeroStringLines(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{
			"import pickle\n\ndef f(a):\n    q = \"\"\"SELECT i\nFROM t\"\"\"\n    return _conn.execute(q)\n\nresult = f(1)\n",
			"q = \"\"\"SELECT i\nFROM t\"\"\"\nreturn _conn.execute(q)",
		},
		{
			"def f(a):\n    \"\"\"Doc\nstring.\"\"\"\n    return 1\n",
			"\"\"\"Doc\nstring.\"\"\"\nreturn 1",
		},
	} {
		got, err := transform.ExtractBody(tc.src, "f")
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("ExtractBody = %q, want %q", got, tc.want)
		}
	}
}

// A multi-line string in a body has the same value on the server and in
// the local script.
func TestMultiLineStringKeepsItsValue(t *testing.T) {
	body := "return \"\"\"a\nb\"\"\""
	c := newConn()
	if _, err := c.Exec("CREATE FUNCTION s(x INTEGER) RETURNS STRING LANGUAGE PYTHON {\n" + body + "\n}"); err != nil {
		t.Fatal(err)
	}
	r, err := c.Exec("SELECT s(1) AS v")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Table.Column("v"); v.Strs[0] != "a\nb" {
		t.Fatalf("server returned %q, want %q", v.Strs[0], "a\nb")
	}

	fs := core.NewMemFS(nil)
	params := script.NewDict()
	params.SetStr("x", script.IntVal(1))
	if err := pickle.DumpFile(fs, "input.bin", params); err != nil {
		t.Fatal(err)
	}
	src := transform.BuildLocalScript(transform.LocalScriptInfo{Name: "s", Params: []string{"x"}, Body: body, InputFile: "input.bin"})
	mod, err := script.Parse("local", src)
	if err != nil {
		t.Fatal(err)
	}
	in := script.NewInterp()
	in.FS = fs
	env, err := in.Run(mod)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := env.Get("result"); v.Repr() != "'a\nb'" {
		t.Fatalf("local script returned %q, want %q", v.Repr(), "'a\nb'")
	}
}

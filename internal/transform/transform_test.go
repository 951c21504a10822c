package transform

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pickle"
	"repro/internal/script"
	"repro/internal/transfer"
)

func TestWrapFunction(t *testing.T) {
	src := WrapFunction("f", []string{"a", "b"}, "x = a + b\nreturn x")
	want := "def f(a, b):\n    x = a + b\n    return x\n"
	if src != want {
		t.Fatalf("wrap:\n%q\nwant\n%q", src, want)
	}
	if _, err := script.Parse("w", src); err != nil {
		t.Fatalf("wrapped source must parse: %v", err)
	}
	empty := WrapFunction("g", nil, "   ")
	if !strings.Contains(empty, "pass") {
		t.Fatalf("empty body needs pass: %q", empty)
	}
}

// TestBuildLocalScriptRunsListing2 generates the paper's Listing 2 shape
// and executes it end to end: input.bin → pickle.load → call.
func TestBuildLocalScriptRunsListing2(t *testing.T) {
	body := "mean = 0\nfor v in column:\n    mean += v\nreturn mean / len(column)"
	src := BuildLocalScript(LocalScriptInfo{
		Name:      "mean_of",
		Params:    []string{"column"},
		Body:      body,
		InputFile: "./input.bin",
	})
	// the generated script must contain the Listing 2 landmarks
	for _, landmark := range []string{
		"import pickle",
		"def mean_of(column):",
		"pickle.load(open('./input.bin', 'rb'))",
		"input_parameters",
	} {
		if !strings.Contains(src, landmark) {
			t.Fatalf("missing %q in generated script:\n%s", landmark, src)
		}
	}
	fs := core.NewMemFS(nil)
	params := script.NewDict()
	params.SetStr("column", script.NewList(
		script.IntVal(2), script.IntVal(4), script.IntVal(6)))
	if err := pickle.DumpFile(fs, "input.bin", params); err != nil {
		t.Fatal(err)
	}
	mod, err := script.Parse("local", src)
	if err != nil {
		t.Fatalf("generated script must parse: %v\n%s", err, src)
	}
	in := script.NewInterp()
	in.FS = fs
	env, err := in.Run(mod)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := env.Get("result")
	if v.Repr() != "4.0" {
		t.Fatalf("result: %s", v.Repr())
	}
}

func TestExtractBodyReversesBuild(t *testing.T) {
	body := "x = 1\nif x:\n    x = 2\nreturn x"
	src := BuildLocalScript(LocalScriptInfo{Name: "f", Params: []string{"a"}, Body: body})
	back, err := ExtractBody(src, "f")
	if err != nil {
		t.Fatal(err)
	}
	if back != body {
		t.Fatalf("extract:\n%q\nwant\n%q", back, body)
	}
}

func TestExtractBodyEditedFile(t *testing.T) {
	// user edited the body and removed the markers entirely
	src := `import pickle

def mean_deviation(column):
    mean = 0
    for v in column:
        mean += abs(v)
    return mean

other = 1
`
	body, err := ExtractBody(src, "mean_deviation")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "mean += abs(v)") || strings.Contains(body, "other") {
		t.Fatalf("body: %q", body)
	}
	if _, err := ExtractBody(src, "not_there"); err == nil {
		t.Fatal("missing function should error")
	}
}

func TestRewriteToExtractTableFunction(t *testing.T) {
	sql := `SELECT * FROM train_rnforest((SELECT data, labels FROM trainingset), 5)`
	out, err := RewriteToExtract(sql, "train_rnforest", transfer.Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sys_extract('train_rnforest', 'c=1;e=0;s=0;r=0'") {
		t.Fatalf("rewritten: %s", out)
	}
	if !strings.Contains(out, "(SELECT data, labels FROM trainingset)") {
		t.Fatalf("subquery argument must survive: %s", out)
	}
}

func TestRewriteToExtractProjectionCall(t *testing.T) {
	sql := `SELECT mean_deviation(i) FROM numbers WHERE i > 3`
	out, err := RewriteToExtract(sql, "mean_deviation", transfer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// the column argument must be wrapped in a subquery that preserves the
	// original FROM and WHERE
	if !strings.Contains(out, "sys_extract('mean_deviation'") {
		t.Fatalf("rewritten: %s", out)
	}
	if !strings.Contains(out, "FROM numbers") || !strings.Contains(out, "i > 3") {
		t.Fatalf("source context lost: %s", out)
	}
	if !strings.HasPrefix(out, "SELECT * FROM sys_extract") {
		t.Fatalf("projection call should hoist into FROM: %s", out)
	}
}

func TestRewriteToExtractMissingUDF(t *testing.T) {
	if _, err := RewriteToExtract(`SELECT a FROM t`, "f", transfer.Options{}); err == nil {
		t.Fatal("no call to rewrite should error")
	}
	if _, err := RewriteToExtract(`INSERT INTO t VALUES (1)`, "f", transfer.Options{}); err == nil {
		t.Fatal("non-select should error")
	}
}

func TestFindUDFCalls(t *testing.T) {
	isUDF := func(name string) bool {
		switch strings.ToLower(name) {
		case "mean_deviation", "train_rnforest", "loadnumbers":
			return true
		}
		return false
	}
	names, err := FindUDFCalls(
		`SELECT mean_deviation(i), SUM(i) FROM loadNumbers('/csvs') WHERE abs(i) > 0`, isUDF)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "mean_deviation" || names[1] != "loadNumbers" {
		t.Fatalf("names: %v", names)
	}
}

// TestFindLoopbackUDFsListing3 discovers the nested train_rnforest call
// inside find_best_classifier's loopback query (paper §2.3).
func TestFindLoopbackUDFsListing3(t *testing.T) {
	body := `
import pickle
(tdata, tlabels) = _conn.execute("""SELECT data,
    labels FROM testingset""")
for estimator in esttest:
    res = _conn.execute("""
        SELECT *
        FROM train_rnforest(
            (SELECT data, labels
            FROM trainingset), %d)
    """ % estimator)
`
	isUDF := func(name string) bool { return strings.EqualFold(name, "train_rnforest") }
	nested := FindLoopbackUDFs(body, isUDF)
	if len(nested) != 1 || nested[0] != "train_rnforest" {
		t.Fatalf("nested: %v", nested)
	}
	queries := LoopbackQueries(body)
	if len(queries) != 2 {
		t.Fatalf("queries: %d %v", len(queries), queries)
	}
}

func TestNeutralizePlaceholders(t *testing.T) {
	got := NeutralizePlaceholders("SELECT * FROM f(%d, '%s', %f)")
	if got != "SELECT * FROM f(0, '''', 0.0)" && !strings.Contains(got, "f(0,") {
		t.Fatalf("neutralized: %q", got)
	}
}

// TestLocalCallNamesOrRefusesEachShape: the two shapes a local run answers
// are named as the server names their columns; every other shape is a
// constraint error that names what the query does to the UDF's output.
func TestLocalCallNamesOrRefusesEachShape(t *testing.T) {
	for _, tc := range []struct{ sql, column, refuse string }{
		{"SELECT f(i) FROM t WHERE i > 1", "f", ""},
		{"SELECT F(i) AS v FROM t", "v", ""},
		{"SELECT f(3)", "f", ""},
		{"SELECT f((SELECT SUM(i) FROM t))", "f", ""},
		{"SELECT * FROM f((SELECT i FROM t), 2)", "", ""},
		{"SELECT f(i) + 1 FROM t", "", "inside an expression"},
		{"SELECT i FROM t WHERE f(i) > 0", "", "inside an expression"},
		{"SELECT i, f(i) FROM t", "", "more than its output"},
		{"SELECT f(f(i)) FROM t", "", "more than once"},
		{"SELECT f(SUM(i)) FROM t", "", "aggregate"},
		{"SELECT DISTINCT f(i) FROM t", "", "DISTINCT"},
		{"SELECT f(i) FROM t ORDER BY 1", "", "ORDER BY"},
		{"SELECT * FROM f((SELECT i FROM t)) WHERE r > 2", "", "WHERE"},
		{"SELECT * FROM f((SELECT i FROM t)) LIMIT 1", "", "LIMIT"},
		{"SELECT r FROM f((SELECT i FROM t))", "", "expressions over its output"},
		{"INSERT INTO t VALUES (1)", "", "not a SELECT"},
	} {
		column, err := LocalCall(tc.sql, "f")
		if tc.refuse == "" {
			if err != nil || column != tc.column {
				t.Errorf("%s: column %q, %v; want %q", tc.sql, column, err, tc.column)
			}
			continue
		}
		if core.KindOf(err) != core.KindConstraint || !strings.Contains(err.Error(), tc.refuse) {
			t.Errorf("%s: %v, want a constraint error naming %q", tc.sql, err, tc.refuse)
		}
	}
}

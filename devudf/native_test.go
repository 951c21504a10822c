package devudf

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/script"
)

// doubleAll is the native implementation the tests in this package
// register, on the server and on the client alike.
func doubleAll(x []int64) []int64 {
	out := make([]int64, len(x))
	for i, v := range x {
		out[i] = v * 2
	}
	return out
}

// TestNativeUDFWorkflow drives the devUDF loop over a LANGUAGE GO UDF:
// list shows it (not debuggable), import writes the stub, extract ships the
// inputs, RunLocal executes the locally registered implementation, and
// export round-trips the symbol back to the server.
func TestNativeUDFWorkflow(t *testing.T) {
	params, db := startServer(t,
		`CREATE TABLE nums (i INTEGER)`,
		`INSERT INTO nums VALUES (1), (2), (3)`,
	)
	if err := db.RegisterGoUDF("double_all", doubleAll); err != nil {
		t.Fatal(err)
	}

	settings := DefaultSettings()
	settings.Connection = params
	settings.DebugQuery = `SELECT double_all(i) FROM nums`
	c, err := Open(ctx, settings, WithFS(core.NewMemFS(nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterGoUDF("double_all", doubleAll); err != nil {
		t.Fatal(err)
	}

	infos, err := c.ListServerUDFs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var info *UDFInfo
	for i := range infos {
		if infos[i].Name == "double_all" {
			info = &infos[i]
		}
	}
	if info == nil || info.Language != "GO" {
		t.Fatalf("server listing: %+v", infos)
	}
	if LanguageDebuggable(info.Language) {
		t.Fatal("GO must not be debuggable")
	}

	imported, err := c.ImportUDFs(ctx, "double_all")
	if err != nil || len(imported) != 1 {
		t.Fatalf("import: %v %v", imported, err)
	}
	src, err := c.Project.LoadUDFSource("double_all")
	if err != nil || !strings.Contains(src, "native GO UDF") {
		t.Fatalf("stub: %q %v", src, err)
	}

	if _, err := c.ExtractInputs(ctx, "double_all"); err != nil {
		t.Fatal(err)
	}
	res, err := c.RunLocal(ctx, "double_all")
	if err != nil {
		t.Fatal(err)
	}
	list, ok := res.Value.(*script.ListVal)
	if !ok || list.Repr() != "[2, 4, 6]" {
		t.Fatalf("RunLocal: %v", res.Value.Repr())
	}

	// local debugging is refused with a pointed error
	if _, err := c.NewDebugSession(ctx, "double_all", true); err == nil ||
		!strings.Contains(err.Error(), "not debuggable") {
		t.Fatalf("debug of a native UDF must be refused, got %v", err)
	}

	// remote debugging terminates immediately with the same explanation
	// (the server-side check runs where the launch runs, as a statement)
	rsess, err := c.NewRemoteDebugSession(ctx, "double_all", true)
	if err != nil {
		t.Fatal(err)
	}
	defer rsess.Close()
	ev, err := rsess.Start()
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Terminal || ev.Err == nil || !strings.Contains(ev.Err.Error(), "not debuggable") {
		t.Fatalf("remote debug of a native UDF must terminate with the refusal, got %+v", ev)
	}

	// export re-creates the function on the server; the query still works
	if err := c.ExportUDFs(ctx, "double_all"); err != nil {
		t.Fatal(err)
	}
	qres, err := c.Query(ctx, `SELECT double_all(i) AS d FROM nums`)
	if err != nil {
		t.Fatal(err)
	}
	col, err := qres.Table.Column("d")
	if err != nil || col.Ints[0] != 2 {
		t.Fatalf("after export: %v %v", qres.Table, err)
	}
}

// TestRunLocalNativeUnregistered: a server's registration does not reach a
// client, whose local run of the UDF then gives an actionable error; and the
// function the client registers does not reach the server.
func TestRunLocalNativeUnregistered(t *testing.T) {
	params, db := startServer(t,
		`CREATE TABLE nums (i INTEGER)`,
		`INSERT INTO nums VALUES (4)`,
	)
	if err := db.RegisterGoUDF("srv_only", func(x []int64) []int64 { return x }); err != nil {
		t.Fatal(err)
	}
	settings := DefaultSettings()
	settings.Connection = params
	settings.DebugQuery = `SELECT srv_only(i) FROM nums`
	c, err := Open(ctx, settings, WithFS(core.NewMemFS(nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ImportUDFs(ctx, "srv_only"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExtractInputs(ctx, "srv_only"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunLocal(ctx, "srv_only"); core.KindOf(err) != core.KindName ||
		!strings.Contains(err.Error(), "RegisterGoUDF") {
		t.Fatalf("unregistered native run must be a name error that points at RegisterGoUDF, got %v", err)
	}
	if err := c.RegisterGoUDF("srv_only", doubleAll); err != nil {
		t.Fatal(err)
	}
	res, err := c.RunLocal(ctx, "srv_only")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := script.AsInt(res.Value); !ok || got != 8 {
		t.Fatalf("local run with the client's function: %s, want 8", res.Value.Repr())
	}
	qres, err := c.Query(ctx, `SELECT srv_only(i) AS v FROM nums`)
	if err != nil {
		t.Fatal(err)
	}
	if got := qres.Table.Cols[0].Ints[0]; got != 4 {
		t.Fatalf("the server answered %d after the client registered its own function, want 4", got)
	}
}

// TestRunLocalNativeAnswersWhatTheServerAnswers: a local run of a GO UDF
// is held to the server's calling rules. A scalar function that answers 2
// rows for 3 fails with the server's own error, and a table function's
// one-row column is broadcast as the server broadcasts it in FROM.
func TestRunLocalNativeAnswersWhatTheServerAnswers(t *testing.T) {
	fns := map[string]any{
		"short_all": func(x []int64) []int64 { return x[:len(x)-1] },
		"with_total": func(x []int64) ([]int64, int64) {
			var s int64
			for _, v := range x {
				s += v
			}
			return x, s
		},
	}
	params, db := startServer(t,
		`CREATE TABLE nums (i INTEGER)`,
		`INSERT INTO nums VALUES (1), (2), (3)`,
	)
	for name, fn := range fns {
		if err := db.RegisterGoUDF(name, fn); err != nil {
			t.Fatal(err)
		}
	}
	// run answers the debug query on the server and runs name locally.
	run := func(name, query string) (server QueryResult, serverErr error, local *RunResult, err error) {
		c := newClient(t, params, query)
		if err := c.RegisterGoUDF(name, fns[name]); err != nil {
			t.Fatal(err)
		}
		server, serverErr = c.Query(ctx, query)
		if _, err := c.ImportUDFs(ctx, name); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ExtractInputs(ctx, name); err != nil {
			t.Fatal(err)
		}
		local, err = c.RunLocal(ctx, name)
		return server, serverErr, local, err
	}

	const want = "constraint error: UDF short_all returned 2 rows for 3 input rows"
	_, serverErr, local, err := run("short_all", `SELECT short_all(i) FROM nums`)
	if serverErr == nil || serverErr.Error() != want {
		t.Fatalf("server: %v, want %q", serverErr, want)
	}
	if err == nil || err.Error() != want {
		t.Fatalf("local run: %v (answered %v), want the server's %q", err, local, want)
	}

	server, serverErr, local, err := run("with_total", `SELECT * FROM with_total((SELECT i FROM nums))`)
	if err != nil || serverErr != nil {
		t.Fatalf("local run: %v, server: %v", err, serverErr)
	}
	if got := server.Table.Cols[1].Ints; len(got) != 3 || got[2] != 6 {
		t.Fatalf("server answered col2 = %v, want 6 broadcast to the 3 rows", got)
	}
	if got := local.Value.Repr(); got != "{'col1': [1, 2, 3], 'col2': [6, 6, 6]}" {
		t.Fatalf("local run answered %s, want col2 broadcast as the server broadcast it", got)
	}
}

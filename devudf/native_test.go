package devudf

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/script"
	"repro/internal/udfrt/gort"
)

// registerDoubleAll installs the shared native implementation used by the
// tests in this file and cleans it up afterwards.
func registerDoubleAll(t *testing.T) {
	t.Helper()
	if err := RegisterGoUDF("double_all", func(x []int64) []int64 {
		out := make([]int64, len(x))
		for i, v := range x {
			out[i] = v * 2
		}
		return out
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gort.Unregister("double_all") })
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
	registerDoubleAll(t)
	if err := db.RegisterGoUDF("double_all", func(x []int64) []int64 {
		out := make([]int64, len(x))
		for i, v := range x {
			out[i] = v * 2
		}
		return out
	}); err != nil {
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
	// (the server-side check runs on the query worker, off the frame loop)
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

// TestRunLocalNativeUnregistered: running a native UDF whose implementation
// is not registered in this process gives an actionable error.
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
	gort.Unregister("srv_only") // the server process has it; this one no longer does
	if _, err := c.RunLocal(ctx, "srv_only"); err == nil ||
		!strings.Contains(err.Error(), "RegisterGoUDF") {
		t.Fatalf("unregistered native run must point at RegisterGoUDF, got %v", err)
	}
}

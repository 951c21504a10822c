package devudf

import (
	"maps"
	"slices"
	"strings"
	"testing"
)

// printingOuterSetup defines outer, which prints and then reduces a loopback
// query that calls the UDF dbl: imported together, the loopback runs dbl
// locally, on the interpreter running outer.
var printingOuterSetup = []string{
	`CREATE TABLE t (i INTEGER)`,
	`INSERT INTO t VALUES (1), (2), (3)`,
	`CREATE FUNCTION dbl(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return [v * 2 for v in x]
};`,
	`CREATE FUNCTION outer(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    print("hello from outer")
    res = _conn.execute("SELECT dbl(i) AS v FROM t")
    return sum(res['v'])
};`,
}

// printingOuterClient imports outer (and with it dbl) and extracts its
// inputs.
func printingOuterClient(t *testing.T) *Client {
	t.Helper()
	params, _ := startServer(t, printingOuterSetup...)
	c := newClient(t, params, "SELECT outer(1) AS s")
	if imported, err := c.ImportUDFs(ctx, "outer"); err != nil || len(imported) != 2 {
		t.Fatalf("import: %v %v, want outer and dbl", imported, err)
	}
	if _, err := c.ExtractInputs(ctx, "outer"); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestLocalDebugSessionKeepsPrintOutput: a local debug session runs the
// script RunLocal runs, and what it prints is kept, not discarded.
func TestLocalDebugSessionKeepsPrintOutput(t *testing.T) {
	c := printingOuterClient(t)
	run, err := c.RunLocal(ctx, "outer")
	if err != nil {
		t.Fatal(err)
	}
	if want := "hello from outer\ndevUDF: outer returned 12\n"; run.Stdout != want {
		t.Fatalf("RunLocal printed %q, want %q", run.Stdout, want)
	}
	sess, err := c.NewDebugSession(ctx, "outer", false)
	if err != nil {
		t.Fatal(err)
	}
	if ev := sess.Start(); !ev.Terminal || ev.Err != nil {
		t.Fatalf("run to the end: %+v", ev)
	}
	if got := sess.Stdout(); got != run.Stdout {
		t.Fatalf("the debug session printed %q, RunLocal %q", got, run.Stdout)
	}
}

// TestGlobalVarsAfterANestedLocalCall: paused in outer after its loopback
// query ran dbl locally, the debugger's globals are the script's, not those
// of the module the nested call ran in.
func TestGlobalVarsAfterANestedLocalCall(t *testing.T) {
	c := printingOuterClient(t)
	sess, err := c.NewDebugSession(ctx, "outer", false)
	if err != nil {
		t.Fatal(err)
	}
	line := 0
	for i, text := range sess.Source() {
		if strings.Contains(text, "return sum(res['v'])") {
			line = i + 1
		}
	}
	sess.SetBreakpoint(line, "")
	if ev := sess.Start(); ev.Reason != ReasonBreakpoint || ev.Line != line {
		t.Fatalf("stop: %+v, want the breakpoint on line %d", ev, line)
	}
	vars, err := sess.GlobalVars()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := slices.Sorted(maps.Keys(vars)), []string{"_conn", "input_parameters", "outer", "pickle"}; !slices.Equal(got, want) {
		t.Fatalf("globals %v, want %v", got, want)
	}
	if ev := sess.Continue(); !ev.Terminal || ev.Err != nil {
		t.Fatalf("terminal: %+v", ev)
	}
}

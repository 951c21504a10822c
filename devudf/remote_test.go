package devudf

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/debug"
	"repro/internal/wire"
)

// TestRemoteDebugAcceptance is the examples/remote_debug scenario as an
// automated test: attach to the buggy mean_deviation UDF executing inside
// the in-process monetlited, hit a conditional breakpoint, inspect locals /
// stack / a watch expression, step, and resume to completion — while
// non-debug traffic on other connections keeps working.
func TestRemoteDebugAcceptance(t *testing.T) {
	params, _ := startServer(t,
		`CREATE TABLE numbers (i INTEGER)`,
		`INSERT INTO numbers VALUES (1), (2), (3), (4), (100)`,
		buggyMeanDeviation,
	)
	settings := DefaultSettings()
	settings.Connection = params
	settings.DebugQuery = `SELECT mean_deviation(i) FROM numbers`
	client, err := Open(ctx, settings, WithFS(core.NewMemFS(nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// A plain client on its own connection, before / after the debug run.
	plain, err := wire.DialContext(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if msg, _, err := plain.Query(ctx, "SELECT i FROM numbers"); err != nil || msg != "SELECT 5" {
		t.Fatalf("pre-debug query: %q %v", msg, err)
	}

	sess, err := client.NewRemoteDebugSession(ctx, "mean_deviation", false)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// Line 8 of the server's wrapper module is `distance += column[i] - mean`;
	// break there only once the accumulation has gone wrong.
	if err := sess.SetBreakpoint(8, "distance < -40"); err != nil {
		t.Fatal(err)
	}
	ev, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Terminal || ev.Reason != debug.ReasonBreakpoint || ev.Line != 8 || ev.FuncName != "mean_deviation" {
		t.Fatalf("first stop: %+v", ev)
	}

	// The debuggee is paused *inside the server*. Liveness traffic (a v2
	// ping bypasses the engine lock) still flows.
	pingConn, err := wire.DialContext(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	defer pingConn.Close()
	pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := pingConn.Ping(pctx); err != nil {
		t.Fatalf("v2 ping while debuggee paused: %v", err)
	}

	// Inspect: mean is 22, so the accumulated distance first crosses -40 at
	// i == 2 (−21 − 20 = −41), evaluated before the line executes.
	locals, err := sess.Locals()
	if err != nil {
		t.Fatal(err)
	}
	if locals["i"] != "2" || locals["distance"] != "-41.0" {
		t.Fatalf("locals at conditional breakpoint: %v", locals)
	}
	watch, err := sess.Eval("column[i] - mean")
	if err != nil {
		t.Fatal(err)
	}
	if watch != "-19.0" { // 3 − 22 at i == 2
		t.Fatalf("watch column[i] - mean: %q", watch)
	}
	frames, err := sess.Stack()
	if err != nil || len(frames) == 0 || frames[0].FuncName != "mean_deviation" {
		t.Fatalf("stack: %+v %v", frames, err)
	}
	src := sess.Source()
	if len(src) < 8 || !strings.Contains(src[7], "distance +=") {
		t.Fatalf("source around breakpoint: %q", src)
	}
	bps := sess.Breakpoints()
	if len(bps) != 1 || bps[0].Line != 8 || bps[0].Condition != "distance < -40" {
		t.Fatalf("breakpoints: %+v", bps)
	}

	// Step once, then clear the breakpoint and run to completion.
	ev, err = sess.StepOver()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Terminal || ev.Reason != debug.ReasonStep {
		t.Fatalf("step: %+v", ev)
	}
	if err := sess.ClearBreakpoint(8); err != nil {
		t.Fatal(err)
	}
	ev, err = sess.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Terminal || ev.Err != nil {
		t.Fatalf("terminal: %+v", ev)
	}
	if sess.Status() != "SELECT 1" {
		t.Fatalf("debug query status: %q", sess.Status())
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	// Non-debug v2 traffic through the client's pool is unaffected.
	if res, err := client.Query(ctx, "SELECT mean_deviation(i) FROM numbers"); err != nil || res.Table.NumRows() != 1 {
		t.Fatalf("pool query after debug: %v", err)
	}
	// And the plain session still works.
	if msg, _, err := plain.Query(ctx, "SELECT i FROM numbers"); err != nil || msg != "SELECT 5" {
		t.Fatalf("post-debug query: %q %v", msg, err)
	}
}

// TestRemoteDebugStopOnEntry covers the stop-on-entry launch and pause /
// kill controls of the remote session.
func TestRemoteDebugStopOnEntry(t *testing.T) {
	params, _ := startServer(t,
		`CREATE TABLE numbers (i INTEGER)`,
		`INSERT INTO numbers VALUES (1), (2), (3)`,
		buggyMeanDeviation,
	)
	settings := DefaultSettings()
	settings.Connection = params
	settings.DebugQuery = `SELECT mean_deviation(i) FROM numbers`
	client, err := Open(ctx, settings, WithFS(core.NewMemFS(nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	sess, err := client.NewRemoteDebugSession(ctx, "mean_deviation", true)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ev, err := sess.Start()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Reason != debug.ReasonEntry {
		t.Fatalf("entry stop: %+v", ev)
	}
	// Kill from the paused state: terminal, and the query fails as killed.
	ev, err = sess.Kill()
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Terminal || ev.Err == nil || !strings.Contains(ev.Err.Error(), "killed") {
		t.Fatalf("kill: %+v", ev)
	}
}

// TestRemoteDebugPause: Pause, sent from one goroutine while another is
// inside Continue, stops a spinning debuggee with a pause stop; Kill then
// ends it. The debugger is attached once Start returns the entry stop, so
// the pause is accepted whether it reaches the server before the continue
// or after it.
func TestRemoteDebugPause(t *testing.T) {
	params, _ := startServer(t, `CREATE FUNCTION spin(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    s = 0
    for k in range(0, 100000000):
        s += k
    return x
};`)
	settings := DefaultSettings()
	settings.Connection = params
	settings.DebugQuery = `SELECT spin(1)`
	client, err := Open(ctx, settings, WithFS(core.NewMemFS(nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	sess, err := client.NewRemoteDebugSession(ctx, "spin", true)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if ev, err := sess.Start(); err != nil || ev.Reason != debug.ReasonEntry {
		t.Fatalf("entry stop: %+v %v", ev, err)
	}
	type stop struct {
		ev  debug.Event
		err error
	}
	stopped := make(chan stop, 1)
	go func() {
		ev, err := sess.Continue()
		stopped <- stop{ev, err}
	}()
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	st := <-stopped
	if st.err != nil || st.ev.Terminal || st.ev.Reason != debug.ReasonPause || st.ev.FuncName != "spin" {
		t.Fatalf("continue, then pause: %+v %v", st.ev, st.err)
	}
	ev, err := sess.Kill()
	if err != nil || !ev.Terminal || ev.Err == nil || !strings.Contains(ev.Err.Error(), "killed") {
		t.Fatalf("kill: %+v %v", ev, err)
	}
}

// TestRemoteDebugNoDebugQuery verifies construction fails without the
// settings' debug query.
func TestRemoteDebugNoDebugQuery(t *testing.T) {
	params, _ := startServer(t, buggyMeanDeviation)
	settings := DefaultSettings()
	settings.Connection = params
	client, err := Open(ctx, settings, WithFS(core.NewMemFS(nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.NewRemoteDebugSession(ctx, "mean_deviation", false); err == nil {
		t.Fatal("expected an error without a debug query")
	}
}

// TestWatchErrorReadsTheSameInBothDebuggers: a watch expression that fails
// in the paused frame answers with the same error from the local debugger
// and the remote one — the same text, kind and message, no traceback.
func TestWatchErrorReadsTheSameInBothDebuggers(t *testing.T) {
	params, _ := startServer(t,
		`CREATE TABLE numbers (i INTEGER)`,
		`INSERT INTO numbers VALUES (1), (2), (3)`,
		buggyMeanDeviation,
	)
	c := newClient(t, params, `SELECT mean_deviation(i) FROM numbers`)
	if _, err := c.ImportUDFs(ctx, "mean_deviation"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExtractInputs(ctx, "mean_deviation"); err != nil {
		t.Fatal(err)
	}

	local, err := c.NewDebugSession(ctx, "mean_deviation", true)
	if err != nil {
		t.Fatal(err)
	}
	if ev := local.Start(); ev.Reason != debug.ReasonEntry {
		t.Fatalf("local entry stop: %+v", ev)
	}
	_, lerr := local.Eval("no_such_var")
	local.Kill()

	remote, err := c.NewRemoteDebugSession(ctx, "mean_deviation", true)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if ev, err := remote.Start(); err != nil || ev.Reason != debug.ReasonEntry {
		t.Fatalf("remote entry stop: %+v %v", ev, err)
	}
	_, rerr := remote.Eval("no_such_var")
	if _, err := remote.Kill(); err != nil {
		t.Fatal(err)
	}

	if lerr == nil || rerr == nil {
		t.Fatalf("local %v, remote %v: both must fail", lerr, rerr)
	}
	if lerr.Error() != rerr.Error() {
		t.Errorf("Error(): local %q, remote %q", lerr.Error(), rerr.Error())
	}
	if lk, rk := core.KindOf(lerr), core.KindOf(rerr); lk != rk {
		t.Errorf("kind: local %v, remote %v", lk, rk)
	}
	if lm, rm := core.Message(lerr), core.Message(rerr); lm != rm {
		t.Errorf("message: local %q, remote %q", lm, rm)
	}
}

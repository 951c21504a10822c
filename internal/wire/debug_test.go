package wire

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/debug"
	"repro/internal/engine"
)

// debugFixture boots a server with the paper's buggy mean_deviation UDF and
// a numbers table, and returns a v2 client.
func debugFixture(t *testing.T) (*Server, *Client) {
	t.Helper()
	db := engine.NewDB()
	conn := &engine.Conn{DB: db, User: "monetdb", Password: "monetdb"}
	for _, sql := range []string{
		`CREATE TABLE numbers (i INTEGER)`,
		`INSERT INTO numbers VALUES (1), (2), (3), (4), (100)`,
		`CREATE FUNCTION mean_deviation(column INTEGER)
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
};`,
		`CREATE FUNCTION double_it(x INTEGER)
RETURNS INTEGER LANGUAGE PYTHON {
    y = x * 2
    return y;
};`,
	} {
		if _, err := conn.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer("demo", "monetdb", "monetdb", db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	host, port, _ := strings.Cut(addr, ":")
	_ = host
	p := ConnParams{Host: "127.0.0.1", Database: "demo", User: "monetdb", Password: "monetdb"}
	p.Port = atoiOrFail(t, port)
	c, err := DialContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func atoiOrFail(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			t.Fatalf("bad port %q", s)
		}
		n = n*10 + int(r-'0')
	}
	return n
}

func ctxSec(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestDebugProtocolFullCycle drives launch → stopped(breakpoint) →
// inspection → step → continue → terminated over the wire, then launches a
// second run on the same connection.
func TestDebugProtocolFullCycle(t *testing.T) {
	_, c := debugFixture(t)
	ctx := ctxSec(t)
	dc, err := c.Debug()
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()

	// The wrapper module is "def mean_deviation(column):" + body; line 8 is
	// the accumulation line (distance += ...).
	_, err = dc.RoundTrip(ctx, DebugRequest{
		Command:     DebugCmdLaunch,
		Query:       "SELECT mean_deviation(i) FROM numbers",
		UDF:         "mean_deviation",
		Breakpoints: []DebugBreakpoint{{Line: 8, Condition: "i == 3"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := dc.WaitEvent(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != DebugEventStopped || ev.Reason != string(debug.ReasonBreakpoint) || ev.Line != 8 {
		t.Fatalf("first stop: %+v", ev)
	}

	// Inspect while paused.
	rep, err := dc.RoundTrip(ctx, DebugRequest{Command: DebugCmdLocals})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Vars["i"] != "3" {
		t.Fatalf("locals: %v", rep.Vars)
	}
	rep, err = dc.RoundTrip(ctx, DebugRequest{Command: DebugCmdEval, Expr: "distance"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Value != "-60.0" {
		t.Fatalf("eval distance: %q", rep.Value)
	}
	rep, err = dc.RoundTrip(ctx, DebugRequest{Command: DebugCmdStack})
	if err != nil || len(rep.Frames) == 0 || rep.Frames[0].Func != "mean_deviation" {
		t.Fatalf("stack: %+v %v", rep.Frames, err)
	}
	rep, err = dc.RoundTrip(ctx, DebugRequest{Command: DebugCmdSource})
	if err != nil || len(rep.Source) == 0 {
		t.Fatalf("source: %v %v", rep.Source, err)
	}

	// A resume while paused is acked immediately; the stop arrives pushed.
	if _, err := dc.RoundTrip(ctx, DebugRequest{Command: DebugCmdStepOver}); err != nil {
		t.Fatal(err)
	}
	ev, err = dc.WaitEvent(ctx)
	if err != nil || ev.Kind != DebugEventStopped || ev.Reason != string(debug.ReasonStep) {
		t.Fatalf("step stop: %+v %v", ev, err)
	}

	// Inspections against a running debuggee fail in-band, not fatally.
	if _, err := dc.RoundTrip(ctx, DebugRequest{Command: DebugCmdContinue}); err != nil {
		t.Fatal(err)
	}
	for {
		ev, err = dc.WaitEvent(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == DebugEventTerminated {
			break
		}
		if _, err := dc.RoundTrip(ctx, DebugRequest{Command: DebugCmdContinue}); err != nil {
			t.Fatal(err)
		}
	}
	if ev.Err != "" {
		t.Fatalf("terminated with error: %s", ev.Err)
	}
	if ev.Msg != "SELECT 1" {
		t.Fatalf("terminated msg: %q", ev.Msg)
	}

	// The connection still carries a whole run after this one ended.
	if ev := launchAgain(t, dc, "SELECT i FROM numbers"); ev.Msg != "SELECT 5" {
		t.Fatalf("second run: %+v", ev)
	}
}

// launchAgain launches query on dc once more, naming a UDF the query does
// not call, and returns the run's terminated event: the check that a debug
// connection still carries a whole run after the last one ended.
func launchAgain(t *testing.T, dc *DebugConn, query string) DebugEventMsg {
	t.Helper()
	ctx := ctxSec(t)
	if _, err := dc.RoundTrip(ctx, DebugRequest{Command: DebugCmdLaunch, Query: query, UDF: "never_called"}); err != nil {
		t.Fatalf("launch %q: %v", query, err)
	}
	ev, err := dc.WaitEvent(ctx)
	if err != nil || ev.Kind != DebugEventTerminated || ev.Err != "" {
		t.Fatalf("run of %q: %+v %v", query, ev, err)
	}
	return ev
}

// TestDebugQueryWhilePaused is the regression for the frame-loop deadlock,
// on raw frames: a query sent on the debug connection while the debuggee is
// paused waits in the connection's statement queue behind the debug run,
// but the frame loop must keep serving. The inspection and the resume sent
// behind the query are answered, the resume lets the run end, and the
// query's result follows the run's terminated event.
func TestDebugQueryWhilePaused(t *testing.T) {
	_, c := debugFixture(t)
	if _, err := c.Exec(ctxSec(t), busyUDF); err != nil {
		t.Fatal(err)
	}
	nc, br := rawSession(t, c.params)
	_ = nc.SetDeadline(time.Now().Add(30 * time.Second))
	next := func() string {
		t.Helper()
		typ, payload, err := ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case MsgDebugReply:
			rep, err := DecodeDebugReply(payload)
			return fmt.Sprintf("reply %d %v %s %v", rep.Seq, rep.Success, rep.Error, err)
		case MsgDebugEvent:
			ev, err := DecodeDebugEvent(payload)
			return fmt.Sprintf("event %s %s %s %v", ev.Kind, ev.Reason, ev.Msg, err)
		case MsgResult:
			msg, _, err := DecodeResult(payload)
			return fmt.Sprintf("result %s %v", msg, err)
		}
		return fmt.Sprintf("frame %d", typ)
	}
	// double_it stops on entry; once resumed, busy runs for milliseconds
	// before the run ends, far behind the replies the frame loop writes.
	launch := DebugRequest{Seq: 1, Command: DebugCmdLaunch, Query: "SELECT busy(double_it(1))",
		UDF: "double_it", StopOnEntry: true}
	if _, err := nc.Write(frameBytes(MsgDebug, EncodeDebugRequest(launch))); err != nil {
		t.Fatal(err)
	}
	// The launch's ack and the entry stop come from two goroutines.
	got := []string{next(), next()}
	slices.Sort(got)
	if want := []string{"event stopped entry  <nil>", "reply 1 true  <nil>"}; !slices.Equal(got, want) {
		t.Fatalf("launch: %q, want %q", got, want)
	}
	if _, err := nc.Write(join(frameBytes(MsgQuery, []byte("SELECT i FROM numbers")),
		frameBytes(MsgDebug, EncodeDebugRequest(DebugRequest{Seq: 2, Command: DebugCmdLocals})),
		frameBytes(MsgDebug, EncodeDebugRequest(DebugRequest{Seq: 3, Command: DebugCmdContinue})))); err != nil {
		t.Fatal(err)
	}
	got = nil
	for len(got) == 0 || !strings.HasPrefix(got[len(got)-1], "result") {
		got = append(got, next())
	}
	want := []string{"reply 2 true  <nil>", "reply 3 true  <nil>", "event terminated done SELECT 1 <nil>", "result SELECT 5 <nil>"}
	if !slices.Equal(got, want) {
		t.Fatalf("behind a paused run: %q, want %q", got, want)
	}
}

// TestDebugTupleAtATimeMode is the regression for the stale trace hook: in
// tuple-at-a-time mode the engine reuses one interpreter per row, so after
// the debugged first invocation terminates, the remaining rows must run
// free of the dead session's hook instead of deadlocking on its event
// channel.
func TestDebugTupleAtATimeMode(t *testing.T) {
	srv, c := debugFixture(t)
	srv.DB.Mode = engine.ModeTupleAtATime
	ctx := ctxSec(t)
	dc, err := c.Debug()
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	_, err = dc.RoundTrip(ctx, DebugRequest{
		Command:     DebugCmdLaunch,
		Query:       "SELECT double_it(i) FROM numbers",
		UDF:         "double_it",
		Breakpoints: []DebugBreakpoint{{Line: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := dc.WaitEvent(ctx)
	if err != nil || ev.Kind != DebugEventStopped || ev.Line != 2 {
		t.Fatalf("row-1 stop: %+v %v", ev, err)
	}
	if _, err := dc.RoundTrip(ctx, DebugRequest{Command: DebugCmdContinue}); err != nil {
		t.Fatal(err)
	}
	// Rows 2..5 execute undebugged on the same interpreter; the query must
	// terminate instead of wedging on the finished session's trace hook.
	ev, err = dc.WaitEvent(ctx)
	if err != nil || ev.Kind != DebugEventTerminated || ev.Err != "" {
		t.Fatalf("terminated: %+v %v", ev, err)
	}
	if ev := launchAgain(t, dc, "SELECT i FROM numbers"); ev.Msg != "SELECT 5" {
		t.Fatalf("run after tuple-mode debug: %+v", ev)
	}
}

// TestBreakpointReachedThroughALoopbackQuery: the target UDF runs only
// inside a loopback query of another UDF (paper §2.3); the loopback runs
// under the launch's invoke hook, so its breakpoint still stops the run.
func TestBreakpointReachedThroughALoopbackQuery(t *testing.T) {
	_, c := debugFixture(t)
	ctx := ctxSec(t)
	if _, err := c.Exec(ctx, `CREATE FUNCTION via_loopback(x INTEGER)
RETURNS INTEGER LANGUAGE PYTHON {
    res = _conn.execute("SELECT mean_deviation(i) AS d FROM numbers")
    return x
};`); err != nil {
		t.Fatal(err)
	}
	dc, err := c.Debug()
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	debugCmd(t, dc, DebugRequest{
		Command:     DebugCmdLaunch,
		Query:       "SELECT via_loopback(1) AS v",
		UDF:         "mean_deviation",
		Breakpoints: []DebugBreakpoint{{Line: 8, Condition: "i == 3"}},
	})
	ev := waitEvent(t, dc, 10*time.Second)
	if ev.Kind != DebugEventStopped || ev.Reason != string(debug.ReasonBreakpoint) || ev.Func != "mean_deviation" || ev.Line != 8 {
		t.Fatalf("first event: %+v, want a breakpoint stop in mean_deviation", ev)
	}
	if rep := debugCmd(t, dc, DebugRequest{Command: DebugCmdEval, Expr: "distance"}); rep.Value != "-60.0" {
		t.Fatalf("distance = %q, want -60.0, computed over the loopback's scan", rep.Value)
	}
	debugCmd(t, dc, DebugRequest{Command: DebugCmdContinue})
	if ev := waitEvent(t, dc, 10*time.Second); ev.Kind != DebugEventTerminated || ev.Err != "" || ev.Msg != "SELECT 1" {
		t.Fatalf("terminated: %+v", ev)
	}
}

// TestDebugLaunchErrors covers the in-band failure paths: bad launch
// parameters, double launch, control without a session.
func TestDebugLaunchErrors(t *testing.T) {
	_, c := debugFixture(t)
	ctx := ctxSec(t)
	dc, err := c.Debug()
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()

	if _, err := dc.RoundTrip(ctx, DebugRequest{Command: DebugCmdContinue}); err == nil {
		t.Fatal("continue without a session should fail")
	}
	if _, err := dc.RoundTrip(ctx, DebugRequest{Command: DebugCmdLaunch, Query: "SELECT 1"}); err == nil {
		t.Fatal("launch without udf should fail")
	}
	if _, err := dc.RoundTrip(ctx, DebugRequest{Command: "warp"}); err == nil {
		t.Fatal("unknown command should fail")
	}

	// Launch against a long pause, then a second launch must be refused.
	_, err = dc.RoundTrip(ctx, DebugRequest{
		Command: DebugCmdLaunch,
		Query:   "SELECT mean_deviation(i) FROM numbers",
		UDF:     "mean_deviation", StopOnEntry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev, err := dc.WaitEvent(ctx); err != nil || ev.Reason != string(debug.ReasonEntry) {
		t.Fatalf("entry stop: %+v %v", ev, err)
	}
	if _, err := dc.RoundTrip(ctx, DebugRequest{
		Command: DebugCmdLaunch, Query: "SELECT 1", UDF: "f",
	}); err == nil || !strings.Contains(err.Error(), "already active") {
		t.Fatalf("second launch: %v", err)
	}
	// Eval of a broken expression fails in-band, session stays paused.
	if _, err := dc.RoundTrip(ctx, DebugRequest{Command: DebugCmdEval, Expr: "no_such_var"}); err == nil {
		t.Fatal("eval of undefined name should fail")
	}
	// Kill ends it.
	if _, err := dc.RoundTrip(ctx, DebugRequest{Command: DebugCmdKill}); err != nil {
		t.Fatal(err)
	}
	ev, err := dc.WaitEvent(ctx)
	if err != nil || ev.Kind != DebugEventTerminated {
		t.Fatalf("kill terminal: %+v %v", ev, err)
	}
	if !strings.Contains(ev.Err, "killed") {
		t.Fatalf("killed err: %q", ev.Err)
	}
}

// TestDebugDisconnectKillsDebuggee proves a paused debuggee does not pin
// the database after its client vanishes: a fresh connection can query the
// same table shortly after the debug connection drops.
func TestDebugDisconnectKillsDebuggee(t *testing.T) {
	_, c := debugFixture(t)
	ctx := ctxSec(t)
	dc, err := c.Debug()
	if err != nil {
		t.Fatal(err)
	}
	_, err = dc.RoundTrip(ctx, DebugRequest{
		Command: DebugCmdLaunch,
		Query:   "SELECT mean_deviation(i) FROM numbers",
		UDF:     "mean_deviation", StopOnEntry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev, err := dc.WaitEvent(ctx); err != nil || ev.Kind != DebugEventStopped {
		t.Fatalf("entry stop: %+v %v", ev, err)
	}
	// Drop the connection with the debuggee paused (holding the DB lock).
	dc.Close()

	c2, err := DialContext(ctx, c.params)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if msg, _, err := c2.Query(qctx, "SELECT i FROM numbers"); err != nil || msg != "SELECT 5" {
		t.Fatalf("query after debug disconnect: %q %v", msg, err)
	}
}

// TestDebugColumnBackedArgument: inside the server a UDF's column argument
// wraps the table's own vector and numbers stay unboxed in the frame; over
// MsgDebug the developer must see the list and the values they always saw.
func TestDebugColumnBackedArgument(t *testing.T) {
	_, c := debugFixture(t)
	ctx := ctxSec(t)
	dc, err := c.Debug()
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	_, err = dc.RoundTrip(ctx, DebugRequest{
		Command:     DebugCmdLaunch,
		Query:       "SELECT mean_deviation(i) FROM numbers",
		UDF:         "mean_deviation",
		Breakpoints: []DebugBreakpoint{{Line: 8, Condition: "i == 3"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := dc.WaitEvent(ctx)
	if err != nil || ev.Kind != DebugEventStopped || ev.Reason != string(debug.ReasonBreakpoint) || ev.Line != 8 {
		t.Fatalf("stop: %+v %v", ev, err)
	}
	rep, err := dc.RoundTrip(ctx, DebugRequest{Command: DebugCmdLocals})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"i": "3", "mean": "22.0", "distance": "-60.0", "column": "[1, 2, 3, 4, 100]"} {
		if rep.Vars[name] != want {
			t.Errorf("local %s = %q, want %q", name, rep.Vars[name], want)
		}
	}
	for expr, want := range map[string]string{"column[i]": "4", "len(column)": "5", "column[0:3]": "[1, 2, 3]"} {
		rep, err := dc.RoundTrip(ctx, DebugRequest{Command: DebugCmdEval, Expr: expr})
		if err != nil || rep.Value != want {
			t.Errorf("watch %s = %q %v, want %q", expr, rep.Value, err, want)
		}
	}
	// A watch may write to the list it sees; the table must not notice.
	if rep, err := dc.RoundTrip(ctx, DebugRequest{Command: DebugCmdEval, Expr: "[column.reverse(), column[0]]"}); err != nil || rep.Value != "[None, 100]" {
		t.Fatalf("writing watch: %q %v", rep.Value, err)
	}
	// The condition holds once: the next event is the end of the run.
	if _, err := dc.RoundTrip(ctx, DebugRequest{Command: DebugCmdContinue}); err != nil {
		t.Fatal(err)
	}
	if ev, err = dc.WaitEvent(ctx); err != nil || ev.Kind != DebugEventTerminated || ev.Err != "" {
		t.Fatalf("after continue: %+v %v", ev, err)
	}
	c2, err := DialContext(ctx, c.params)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, table, err := c2.Query(ctx, "SELECT i FROM numbers"); err != nil || table.Cols[0].FormatValue(0) != "1" {
		t.Fatalf("numbers after the debug run: %v %v", table, err)
	}
}

// TestSetBreakpointsBeforeTheUDFIsReached: a launch's breakpoints belong to
// its session from the start, so a setBreakpoints that arrives while the
// statement is still on its way to the UDF replaces them. gate, a GO UDF
// that blocks until the test releases it, holds the run: spin's argument is
// evaluated first, so spin is reached only after the release.
func TestSetBreakpointsBeforeTheUDFIsReached(t *testing.T) {
	srv, c := debugFixture(t)
	entered, release := make(chan struct{}, 1), make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	if err := srv.DB.RegisterGoUDF("gate", func(x []int64) []int64 {
		entered <- struct{}{}
		<-release
		return x
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctxSec(t), spinUDF); err != nil {
		t.Fatal(err)
	}
	dc, err := c.Debug()
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	// Line 2 of spin's wrapper module is `s = 0`, line 4 the loop body.
	debugCmd(t, dc, DebugRequest{Command: DebugCmdLaunch, Query: "SELECT spin(gate(1))", UDF: "spin",
		Breakpoints: []DebugBreakpoint{{Line: 2}}})
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the debug run never reached gate")
	}
	// Until then every other command is refused.
	for _, cmd := range []string{DebugCmdContinue, DebugCmdStepOver, DebugCmdStepInto, DebugCmdStepOut,
		DebugCmdKill, DebugCmdPause, DebugCmdStack, DebugCmdLocals, DebugCmdGlobals, DebugCmdEval, DebugCmdSource} {
		if _, err := dc.RoundTrip(ctxSec(t), DebugRequest{Command: cmd, Expr: "k"}); err == nil ||
			!strings.Contains(err.Error(), "no UDF invocation is attached") {
			t.Fatalf("%s before the UDF is reached: %v", cmd, err)
		}
	}
	debugCmd(t, dc, DebugRequest{Command: DebugCmdSetBreakpoints,
		Breakpoints: []DebugBreakpoint{{Line: 4, Condition: "k == 3"}}})
	once.Do(func() { close(release) })
	ev := waitEvent(t, dc, 10*time.Second)
	if ev.Kind != DebugEventStopped || ev.Reason != string(debug.ReasonBreakpoint) || ev.Func != "spin" || ev.Line != 4 {
		t.Fatalf("first event: %+v, want the replaced set's breakpoint on line 4", ev)
	}
	if rep := debugCmd(t, dc, DebugRequest{Command: DebugCmdEval, Expr: "k"}); rep.Value != "3" {
		t.Fatalf("stopped at k = %s, want 3", rep.Value)
	}
	debugCmd(t, dc, DebugRequest{Command: DebugCmdKill})
	if ev := waitEvent(t, dc, 10*time.Second); ev.Kind != DebugEventTerminated || ev.Reason != string(debug.ReasonKilled) {
		t.Fatalf("kill: %+v", ev)
	}
}

// TestDebugEvalErrorReplyIsTheMessage pins the text of a failed eval's
// reply: the script error's message, without the traceback its
// *script.RuntimeError carries (the one error a debug reply sees that is
// not itself a *core.Error).
func TestDebugEvalErrorReplyIsTheMessage(t *testing.T) {
	_, c := debugFixture(t)
	dc, err := c.Debug()
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	debugCmd(t, dc, DebugRequest{
		Command: DebugCmdLaunch, Query: "SELECT mean_deviation(i) FROM numbers",
		UDF: "mean_deviation", StopOnEntry: true,
	})
	if ev := waitEvent(t, dc, 10*time.Second); ev.Reason != string(debug.ReasonEntry) {
		t.Fatalf("entry stop: %+v", ev)
	}
	_, err = dc.RoundTrip(ctxSec(t), DebugRequest{Command: DebugCmdEval, Expr: "no_such_var"})
	if want := "runtime error: name 'no_such_var' is not defined"; err == nil || err.Error() != want {
		t.Fatalf("eval error = %v, want %q", err, want)
	}
	debugCmd(t, dc, DebugRequest{Command: DebugCmdKill})
	if ev := waitEvent(t, dc, 10*time.Second); ev.Kind != DebugEventTerminated {
		t.Fatalf("kill: %+v", ev)
	}
}

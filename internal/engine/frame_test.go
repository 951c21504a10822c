package engine

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/script"
)

// loopbackConn is a database whose PYTHON UDF outer(x) reaches inner(x)
// through a loopback query (_conn.execute), the shape of paper §2.3.
func loopbackConn(t *testing.T, loopback string) *Conn {
	t.Helper()
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE t (i INTEGER)`)
	mustExec(t, c, `INSERT INTO t VALUES (1), (2), (3)`)
	mustExec(t, c, `CREATE TABLE log (i INTEGER)`)
	mustExec(t, c, `CREATE FUNCTION inner(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    print("inner", len(x))
    return sum(x)
};`)
	mustExec(t, c, `CREATE FUNCTION outer(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    res = _conn.execute("`+loopback+`")
    return x
};`)
	return c
}

// TestLoopbackRunsUnderItsCallersInvokeAndStdout: the invoke hook and the
// print channel of a statement reach the UDFs its loopback queries call.
func TestLoopbackRunsUnderItsCallersInvokeAndStdout(t *testing.T) {
	c := loopbackConn(t, "SELECT inner(i) AS s FROM t")
	var invoked []string
	var out bytes.Buffer
	o := ExecOpts{
		Stdout: &out,
		Invoke: func(name string, _ *script.Interp, _ []string, call func() (script.Value, error)) (script.Value, error) {
			invoked = append(invoked, name)
			return call()
		},
	}
	if _, err := c.ExecWith(o, `SELECT outer(1) AS v`); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(invoked, ","); got != "outer,inner" {
		t.Errorf("the invoke hook saw %q, want outer,inner", got)
	}
	if got := out.String(); got != "inner 3\n" {
		t.Errorf("print output %q, want the inner UDF's", got)
	}
	// Neither follows the session into its next statement.
	invoked, out = nil, bytes.Buffer{}
	mustExec(t, c, `SELECT outer(1) AS v`)
	if len(invoked) != 0 || out.Len() != 0 {
		t.Errorf("a plain statement after it still ran the hook (%v) or printed (%q)", invoked, out.String())
	}
}

// TestLoopbackRunsUnderItsCallersTrace: the WAL span of a loopback INSERT
// lands in the calling statement's trace.
func TestLoopbackRunsUnderItsCallersTrace(t *testing.T) {
	c := loopbackConn(t, "INSERT INTO log VALUES (1)")
	c.DB.SetPersistence(func(Change) error { time.Sleep(time.Millisecond); return nil }, nil)
	tr := obs.NewTrace(`SELECT outer(1) AS v`, c.User)
	if _, err := c.ExecWith(ExecOpts{Trace: tr}, tr.Query); err != nil {
		t.Fatal(err)
	}
	if d := tr.Stage(obs.StageWAL); d < time.Millisecond {
		t.Errorf("WAL span %v, want the loopback commit's millisecond", d)
	}
	if d := tr.Stage(obs.StageUDF); d < time.Millisecond {
		t.Errorf("UDF span %v, want outer's call, which waited for the commit", d)
	}
}

// TestLoopbackRunsUnderItsCallersInterrupt: a loopback query checks the
// calling statement's interrupt. Its own first UDF call fires it, and the
// statement ends cancelled without calling the UDF again.
func TestLoopbackRunsUnderItsCallersInterrupt(t *testing.T) {
	c := loopbackConn(t, "SELECT trip(i) AS s FROM t WHERE trip(i) > 0")
	done := make(chan struct{})
	var once sync.Once
	calls := 0
	if err := c.DB.RegisterGoUDF("trip", func(x []int64) []int64 {
		calls++
		once.Do(func() { close(done) })
		return x
	}); err != nil {
		t.Fatal(err)
	}
	before := c.DB.QueriesCancelled()
	_, err := c.ExecWith(ExecOpts{Interrupt: Interrupt{Done: done}}, `SELECT outer(1) AS v`)
	if !core.IsCancelled(err) {
		t.Fatalf("statement ended with %v, want a cancelled error", err)
	}
	if calls != 1 {
		t.Errorf("trip ran %d times, want once: the loopback's WHERE checkpoint should stop it", calls)
	}
	if n := c.DB.QueriesCancelled() - before; n != 1 {
		t.Errorf("QueriesCancelled moved by %d, want 1", n)
	}
}

// TestFrameKeepsTheStatementsResult: each execution's Result lives in its
// own frame, so an earlier result is not overwritten by a later one.
func TestFrameKeepsTheStatementsResult(t *testing.T) {
	c := loopbackConn(t, "SELECT 1")
	stmt, err := c.Prepare(`SELECT i FROM t WHERE i > ?`)
	if err != nil {
		t.Fatal(err)
	}
	first, err := stmt.Query(int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(int64(2)); err != nil {
		t.Fatal(err)
	}
	rs, err := c.ExecAll(`SELECT i FROM t; SELECT i FROM t WHERE i > 2`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		res  *Result
		want string
	}{{first, "SELECT 2"}, {rs[0], "SELECT 3"}, {rs[1], "SELECT 1"}} {
		if r.res.Msg != r.want {
			t.Errorf("result tag %q, want %q", r.res.Msg, r.want)
		}
	}
}

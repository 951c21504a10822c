package engine

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// spinUDF loops until it is cancelled: every test that runs it interrupts
// it within a few hundred milliseconds. It is sized in interpreter steps,
// not seconds — 200M of them, four times the 50M default step budget, which
// is the backstop that ends a run whose interrupt was lost. A faster
// interpreter only brings that backstop closer; it stays seconds away.
const spinUDF = `CREATE FUNCTION spin(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    s = 0
    for k in range(0, 100000000):
        s += k
    return x
};`

// filterSpinUDF rejects every item of a comprehension over a range too large
// to build, so nothing but the comprehension's own per-iteration step can
// reach the interrupt.
const filterSpinUDF = `CREATE FUNCTION filterspin(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return len([i for i in range(0, 100000000000) if i < 0])
};`

// A comprehension whose filter rejects every item still counts a step per
// item, so the statement's deadline and the UDF wall budget both end it.
func TestFilteredComprehensionIsInterruptible(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind core.ErrorKind
		run  func(c *Conn) error
	}{
		{"ExecContext deadline", core.KindCancelled, func(c *Conn) error {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			_, err := c.ExecContext(ctx, `SELECT filterspin(1)`)
			return err
		}},
		{"MaxUDFWall", core.KindResource, func(c *Conn) error {
			c.DB.MaxUDFWall = 50 * time.Millisecond
			_, err := c.Exec(`SELECT filterspin(1)`)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestConn()
			mustExec(t, c, filterSpinUDF)
			start := time.Now()
			if err := tc.run(c); core.KindOf(err) != tc.kind {
				t.Fatalf("want %v error, got %v", tc.kind, err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("took %v; the filtered comprehension escaped the interrupt", d)
			}
		})
	}
}

func TestExecContextPreCancelled(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE t (i INTEGER)`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.ExecContext(ctx, `SELECT i FROM t`)
	if !core.IsCancelled(err) {
		t.Fatalf("want cancelled error, got %v", err)
	}
	if n := c.DB.QueriesCancelled(); n != 1 {
		t.Fatalf("QueriesCancelled = %d, want 1", n)
	}
	// The database is untouched and immediately usable again.
	mustExec(t, c, `SELECT i FROM t`)
}

func TestExecContextDeadlineAbortsUDF(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, spinUDF)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.ExecContext(ctx, `SELECT spin(1)`)
	if !core.IsCancelled(err) {
		t.Fatalf("want cancelled error, got %v", err)
	}
	// The interpreter polls the interrupt every 1024 steps, so the abort
	// must land promptly — nowhere near the loop's natural runtime.
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v; interrupt not reaching the UDF loop", d)
	}
	if c.DB.QueriesCancelled() == 0 {
		t.Fatal("QueriesCancelled not bumped")
	}
	// The engine lock was released: a fresh statement runs instantly.
	mustExec(t, c, `SELECT 1`)
}

func TestExecContextCancelMidScan(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, spinUDF)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.ExecContext(ctx, `SELECT spin(2)`)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !core.IsCancelled(err) {
			t.Fatalf("want cancelled error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not abort the running statement")
	}
}

func TestStmtExecContextCancelled(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE t (i INTEGER)`)
	mustExec(t, c, `INSERT INTO t VALUES (1)`)
	stmt, err := c.Prepare(`SELECT i FROM t WHERE i = ?`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := stmt.ExecContext(ctx, int64(1)); !core.IsCancelled(err) {
		t.Fatalf("want cancelled error, got %v", err)
	}
	// The statement survives its cancelled execution.
	res, err := stmt.ExecContext(context.Background(), int64(1))
	if err != nil || res.Table.NumRows() != 1 {
		t.Fatalf("statement unusable after cancelled run: %v %v", res, err)
	}
}

func TestMaxResultRowsBudget(t *testing.T) {
	c := newTestConn()
	c.DB.MaxResultRows = 2
	mustExec(t, c, `CREATE TABLE t (i INTEGER)`)
	mustExec(t, c, `INSERT INTO t VALUES (1), (2), (3)`)
	_, err := c.Exec(`SELECT i FROM t`)
	if core.KindOf(err) != core.KindResource {
		t.Fatalf("want resource error, got %v", err)
	}
	// Within budget passes; the budget bounds what ships, not what exists.
	res := mustExec(t, c, `SELECT i FROM t LIMIT 2`)
	if res.Table.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", res.Table.NumRows())
	}
}

func TestUDFWallBudget(t *testing.T) {
	c := newTestConn()
	c.DB.MaxUDFWall = 30 * time.Millisecond
	mustExec(t, c, spinUDF)
	start := time.Now()
	_, err := c.Exec(`SELECT spin(3)`)
	if core.KindOf(err) != core.KindResource {
		t.Fatalf("want resource error, got %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("wall budget took %v to fire; interpreter not polling", d)
	}
	// Fast calls stay under the budget and run normally.
	mustExec(t, c, `CREATE FUNCTION quick(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return x + 1
};`)
	res := mustExec(t, c, `SELECT quick(41) AS a`)
	if got := intCol(t, res.Table, "a"); len(got) != 1 || got[0] != 42 {
		t.Fatalf("quick: %v", got)
	}
}

// TestExecWithAllocsMatchPlainExec pins the explicit door's promise: an
// armed interrupt, a trace, or both cost a prepared execution no
// allocation beyond what the plain Stmt.Exec of the same statement makes.
// The filter reaches the morsel policy, so the interrupt is handed to the
// kernels on every run.
func TestExecWithAllocsMatchPlainExec(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE t (i INTEGER)`)
	mustExec(t, c, `INSERT INTO t VALUES (1), (2), (3), (4)`)
	stmt, err := c.Prepare(`SELECT i FROM t WHERE i > ?`)
	if err != nil {
		t.Fatal(err)
	}
	args := []any{int64(2)}
	run := func(o ExecOpts) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := stmt.ExecWith(o, args...); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := testing.AllocsPerRun(200, func() {
		if _, err := stmt.Exec(args...); err != nil {
			t.Fatal(err)
		}
	})
	tr := obs.AcquireTrace(stmt.SQL(), c.User)
	defer obs.ReleaseTrace(tr)
	armed := Interrupt{Done: make(chan struct{}), Deadline: time.Now().Add(time.Hour)}
	for _, tc := range []struct {
		name string
		opts ExecOpts
	}{
		{"armed interrupt", ExecOpts{Interrupt: armed}},
		{"pooled trace", ExecOpts{Trace: tr}},
		{"both", ExecOpts{Interrupt: armed, Trace: tr}},
	} {
		if got := run(tc.opts); got > plain {
			t.Errorf("%s: %.0f allocs/op, plain Stmt.Exec makes %.0f", tc.name, got, plain)
		}
	}
}

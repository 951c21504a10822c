package engine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
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
// item, so the statement's deadline ends it.
func TestFilteredComprehensionIsInterruptible(t *testing.T) {
	t.Run("ExecContext deadline", func(t *testing.T) {
		c := newTestConn()
		mustExec(t, c, filterSpinUDF)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		start := time.Now()
		if _, err := c.ExecContext(ctx, `SELECT filterspin(1)`); !core.IsCancelled(err) {
			t.Fatalf("want cancelled error, got %v", err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("took %v; the filtered comprehension escaped the interrupt", d)
		}
	})
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

// TestExecContextDeadlineFailsGoUDF: a native GO UDF cannot be preempted,
// so one that sleeps past the statement's deadline runs to its end, and
// the checkpoint after the projection fails the statement.
func TestExecContextDeadlineFailsGoUDF(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE t (i INTEGER)`)
	mustExec(t, c, `INSERT INTO t VALUES (1), (2), (3)`)
	calls := 0
	if err := c.DB.RegisterGoUDF("nap_embedded", func(x []int64) []int64 {
		calls++
		time.Sleep(100 * time.Millisecond)
		return x
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.ExecContext(ctx, `SELECT nap_embedded(i) AS v FROM t`); !core.IsCancelled(err) {
		t.Fatalf("want cancelled error, got %v", err)
	}
	if calls != 1 {
		t.Errorf("nap_embedded ran %d times, want once", calls)
	}
	mustExec(t, c, `SELECT i FROM t`)
}

// TestExecContextStopsAnAggregateFold: an aggregate folding its argument
// morsel by morsel stops claiming morsels once its statement is cancelled.
// An element-wise GO UDF blocks from its second morsel on until the
// context is cancelled; the statement then fails with a cancelled error and
// no row, each worker makes at most the one call it was in, and neither a
// UDF call nor a morsel worker outlives the statement.
func TestExecContextStopsAnAggregateFold(t *testing.T) {
	const morsels = 16
	for _, workers := range []int{2, 4} {
		for _, agg := range []string{"SUM", "MAX"} {
			t.Run(fmt.Sprintf("%s/workers=%d", agg, workers), func(t *testing.T) {
				c := newTestConn()
				c.DB.workers, c.DB.morselSize = workers, 64
				col := storage.NewColumn("i", storage.TInt)
				for i := 0; i < morsels*64; i++ {
					col.AppendInt(int64(i))
				}
				if err := c.DB.RegisterTable(&storage.Table{Name: "t", Cols: []*storage.Column{col}}); err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var calls, inflight atomic.Int32
				if err := c.DB.RegisterGoUDFElementwise("hold", func(x []int64) []int64 {
					inflight.Add(1)
					defer inflight.Add(-1)
					if calls.Add(1) >= 2 {
						<-ctx.Done()
					}
					return x
				}); err != nil {
					t.Fatal(err)
				}
				go func() {
					for calls.Load() < 2 {
						time.Sleep(time.Millisecond)
					}
					cancel()
				}()
				res, err := c.ExecContext(ctx, `SELECT `+agg+`(hold(i)) AS v FROM t WHERE i >= 0`)
				if !core.IsCancelled(err) || res != nil {
					t.Fatalf("want a cancelled error and no result, got %v, %v", res, err)
				}
				if n := inflight.Load(); n != 0 {
					t.Errorf("%d UDF calls still running after the statement returned", n)
				}
				if n := calls.Load(); n > int32(workers)+1 {
					t.Errorf("%d UDF calls, want at most %d: the fold kept claiming morsels after the cancel", n, workers+1)
				}
				// A worker has finished once RunIdx returns, but may take a
				// moment more to exit; one that is still working never does.
				buf := make([]byte, 1<<20)
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
					stacks := string(buf[:runtime.Stack(buf, true)])
					if !strings.Contains(stacks, "vec.Pol.RunIdx") {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("a morsel worker outlived the statement:\n%s", stacks)
					}
				}
			})
		}
	}
}

// TestMaxResultBytesBudget: the budget is on the encoded size of a SELECT
// statement's result, checked once in the engine, so it reaches a UDF's
// loopback queries as well as the statements a client sends. What a
// statement reads on the way, a derived table say, is not its result.
func TestMaxResultBytesBudget(t *testing.T) {
	c := loopbackConn(t, "SELECT i FROM t")
	size := func(sql string) int {
		t.Helper()
		tbl := mustExec(t, c, sql).Table
		return storage.EncodedTableSize(tbl, 0, tbl.NumRows())
	}
	full, outer := size(`SELECT i FROM t`), size(`SELECT outer(1) AS v`)

	c.DB.MaxResultBytes = full - 1
	if _, err := c.Exec(`SELECT i FROM t`); core.KindOf(err) != core.KindResource {
		t.Fatalf("a result one byte over the budget: want resource error, got %v", err)
	}
	// A LIMIT that brings the result under the budget passes; the budget
	// bounds what a statement returns, not what it scans.
	if res := mustExec(t, c, `SELECT i FROM t LIMIT 2`); res.Table.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", res.Table.NumRows())
	}
	if res := mustExec(t, c, `SELECT COUNT(*) AS n FROM (SELECT i FROM t) AS d`); intCol(t, res.Table, "n")[0] != 3 {
		t.Fatalf("count over a derived table: %v", intCol(t, res.Table, "n"))
	}
	// outer's own result fits; the loopback query it sends does not.
	if outer > c.DB.MaxResultBytes {
		t.Fatalf("outer's result is %d bytes, over the %d budget", outer, c.DB.MaxResultBytes)
	}
	if _, err := c.Exec(`SELECT outer(1) AS v`); core.KindOf(err) != core.KindResource {
		t.Fatalf("a loopback query over the budget: want its statement to fail with a resource error, got %v", err)
	}

	c.DB.MaxResultBytes = full
	if res := mustExec(t, c, `SELECT i FROM t`); res.Table.NumRows() != 3 {
		t.Fatalf("a result exactly at the budget: rows = %d, want 3", res.Table.NumRows())
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

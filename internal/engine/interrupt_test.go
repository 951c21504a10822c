package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

// tripwire is the body of the Go UDFs in TestInterruptStopsEveryPipeline:
// the first call closes the statement's Interrupt.Done, and every call that
// begins after that is counted. The flag is stored after the close, so a
// late call is one a checkpoint placed before it would have seen.
type tripwire struct {
	done    chan struct{}
	once    sync.Once
	tripped atomic.Bool
	late    atomic.Int64
}

func (w *tripwire) enter() {
	if w.tripped.Load() {
		w.late.Add(1)
	}
	w.once.Do(func() {
		close(w.done)
		w.tripped.Store(true)
	})
}

// TestInterruptStopsEveryPipeline cancels a statement from inside its own
// first UDF call and counts how much work follows. Every place a UDF is
// driven from — WHERE, projection, an aggregate's argument, GROUP BY,
// ORDER BY, DISTINCT, a table function in FROM — must end the statement
// cancelled, count it once, and start no further call except the one
// morsel each other worker may already have claimed when the signal fired.
// The serial drivers (one worker, tuple-at-a-time) get no such allowance.
func TestInterruptStopsEveryPipeline(t *testing.T) {
	const morsel, rows = 8, 64 * 8
	shapes := []struct{ name, sql string }{
		{"where", `SELECT x FROM t WHERE trip(x) > 0`},
		{"project", `SELECT trip(x) FROM t`},
		{"aggregate", `SELECT SUM(trip(x)) FROM t`},
		{"group by", `SELECT g, SUM(trip(x)) FROM t GROUP BY g`},
		{"having", `SELECT g FROM t GROUP BY g HAVING SUM(trip(x)) > 0`},
		{"order by", `SELECT x FROM t ORDER BY trip(x)`},
		{"distinct", `SELECT DISTINCT trip(x) FROM t`},
		{"table udf in from", `SELECT trip(a) FROM trip_pair((SELECT x FROM t))`},
	}
	drivers := []struct {
		name    string
		workers int
		mode    Mode
	}{
		{"workers=1", 1, ModeOperatorAtATime},
		{"workers=4", 4, ModeOperatorAtATime},
		{"tuple", 1, ModeTupleAtATime},
	}
	for _, d := range drivers {
		for _, s := range shapes {
			t.Run(d.name+"/"+s.name, func(t *testing.T) {
				c := newTestConn()
				c.DB.workers, c.DB.morselSize, c.DB.Mode = d.workers, morsel, d.mode
				x, g := storage.NewColumn("x", storage.TInt), storage.NewColumn("g", storage.TInt)
				for i := 0; i < rows; i++ {
					x.AppendInt(int64(i + 1))
					g.AppendInt(int64(i % 3))
				}
				if err := c.DB.RegisterTable(&storage.Table{Name: "t", Cols: []*storage.Column{x, g}}); err != nil {
					t.Fatal(err)
				}
				w := &tripwire{done: make(chan struct{})}
				if err := c.DB.RegisterGoUDFElementwise("trip", func(x []int64) []int64 {
					w.enter()
					return x
				}); err != nil {
					t.Fatal(err)
				}
				if err := c.DB.RegisterGoUDF("trip_pair", func(x []int64) ([]int64, []int64) {
					w.enter()
					return x, x
				}); err != nil {
					t.Fatal(err)
				}

				before := c.DB.QueriesCancelled()
				_, err := c.ExecWith(ExecOpts{Interrupt: Interrupt{Done: w.done}}, s.sql)
				if !core.IsCancelled(err) {
					t.Fatalf("statement ended with %v, want a cancelled error", err)
				}
				if !w.tripped.Load() {
					t.Fatal("cancelled before the UDF ran: the statement under test never reached it")
				}
				if n := c.DB.QueriesCancelled() - before; n != 1 {
					t.Errorf("QueriesCancelled moved by %d, want 1", n)
				}
				if late, max := w.late.Load(), int64(d.workers-1); late > max {
					t.Errorf("%d UDF calls began after the interrupt fired, want at most %d (%s over %d morsels)",
						late, max, d.name, rows/morsel)
				}
				// The lock is released and the next statement is not haunted.
				if _, err := c.Exec(`SELECT COUNT(*) FROM t`); err != nil {
					t.Errorf("statement after the cancelled one: %v", err)
				}
			})
		}
	}
}

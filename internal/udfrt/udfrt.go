// Package udfrt defines the engine↔UDF runtime contract: a columnar Batch
// as the unit of exchange, a Runtime that compiles stored function
// definitions into Callables, and a registry keyed by the CREATE FUNCTION
// LANGUAGE clause. The engine, devudf's local runner and the debugger all
// dispatch through this one seam, so adding a UDF language is a matter of
// registering a Runtime — the extension-point design the paper's IDE
// integration presumes the engine exposes.
//
// How a UDF is called is decided here, once — CheckCall, NewBatch, Run and
// Shape — for the engine's three dispatch modes and devUDF's local nested
// calls alike, so a UDF run locally behaves as it does inside the server.
package udfrt

import (
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/script"
	"repro/internal/storage"
)

// Batch is a columnar slice of rows crossing the engine↔runtime boundary.
// Each argument (or result) is one whole column; Rows is the logical row
// count — an input column either has Rows rows or one row (a constant to
// broadcast). IsColumn records, per argument, MonetDB/Python's calling
// convention: arguments deriving from table data arrive in the UDF as
// arrays, constant expressions as bare scalars, regardless of how many rows
// the column happens to hold. Result batches leave IsColumn nil.
type Batch struct {
	Cols     []*storage.Column
	Rows     int
	IsColumn []bool
}

// NewBatch builds an input batch over argument columns. Rows is the
// longest columnar argument's length, else (constants only) the longest
// column's: a length-1 constant must not mask an empty input column.
func NewBatch(cols []*storage.Column, isColumn []bool) *Batch {
	b := &Batch{Cols: cols, IsColumn: isColumn}
	columnar := slices.Contains(isColumn, true)
	for i, c := range cols {
		if b.Columnar(i) == columnar {
			b.Rows = max(b.Rows, c.Len())
		}
	}
	return b
}

// Columnar reports the calling convention of argument i (false when the
// batch carries no flags).
func (b *Batch) Columnar(i int) bool {
	return i < len(b.IsColumn) && b.IsColumn[i]
}

// Slice returns a view batch of rows [lo, hi): full-length columnar
// arguments are sliced (aliasing the originals — read-only), length-1
// constants pass through whole. The engine's morsel-parallel scalar-UDF
// dispatch splits batches with it.
func (b *Batch) Slice(lo, hi int) *Batch {
	cols := make([]*storage.Column, len(b.Cols))
	for i, c := range b.Cols {
		if c.Len() == b.Rows {
			cols[i] = c.Slice(lo, hi)
		} else {
			cols[i] = c
		}
	}
	return &Batch{Cols: cols, Rows: hi - lo, IsColumn: b.IsColumn}
}

// Row extracts a one-row input batch for row r, with every argument demoted
// to the scalar calling convention — the tuple-at-a-time shape. Length-1
// columns broadcast.
func (b *Batch) Row(r int) *Batch {
	cols := make([]*storage.Column, len(b.Cols))
	for i, c := range b.Cols {
		ri := r
		if c.Len() == 1 {
			ri = 0
		}
		cols[i] = c.Gather([]int{ri})
	}
	return &Batch{Cols: cols, Rows: 1, IsColumn: make([]bool, len(cols))}
}

// CheckCall checks a call of def with nargs arguments against its
// definition: one argument per parameter, and a table function only in
// FROM (inFrom), where a scalar function may be used too.
func CheckCall(def *storage.FuncDef, nargs int, inFrom bool) error {
	if def.IsTable && !inFrom {
		return core.Errorf(core.KindType, "%s is a table function; use it in FROM", def.Name)
	}
	if nargs != len(def.Params) {
		return core.Errorf(core.KindConstraint,
			"%s expects %d argument(s), got %d", def.Name, len(def.Params), nargs)
	}
	return nil
}

// Run makes one call of def over in, used in FROM or as a scalar: it checks
// the call, makes it through call and shapes the result. A scalar call
// whose columnar input has no rows is not made (an operator with no input
// tuples is never invoked) and yields an empty column.
func Run(def *storage.FuncDef, in *Batch, inFrom bool, call func(*Batch) (*Batch, error)) ([]*storage.Column, error) {
	if err := CheckCall(def, len(in.Cols), inFrom); err != nil {
		return nil, err
	}
	if !inFrom && in.Rows == 0 && slices.Contains(in.IsColumn, true) {
		return []*storage.Column{storage.NewColumn(def.Returns[0].Name, def.Returns[0].Type)}, nil
	}
	out, err := call(in)
	if err != nil {
		return nil, err
	}
	return Shape(def, out, in.Rows, inFrom)
}

// Shape validates the result of a call of def over rows input rows and
// returns its columns. In FROM, they are the declared ones (one for a
// scalar function), length-1 columns broadcast to the longest. As a scalar,
// it is the declared result column, of rows values or one (an aggregate).
func Shape(def *storage.FuncDef, out *Batch, rows int, inFrom bool) ([]*storage.Column, error) {
	want := 1
	if def.IsTable {
		want = len(def.Returns)
	}
	var n int
	if out != nil {
		n = len(out.Cols)
	}
	if n != want {
		return nil, core.Errorf(core.KindConstraint,
			"UDF %s returned %d columns, declared %d", def.Name, n, want)
	}
	if inFrom {
		if err := (&storage.Table{Cols: out.Cols}).Broadcast(); err != nil {
			return nil, err
		}
		return out.Cols, nil
	}
	col := out.Cols[0]
	if rows > 0 && col.Len() != rows && col.Len() != 1 {
		return nil, core.Errorf(core.KindConstraint,
			"UDF returned %d rows for %d input rows", col.Len(), rows)
	}
	col.Name = def.Returns[0].Name
	return out.Cols, nil
}

// Runtime is one UDF execution backend, registered under the LANGUAGE name
// it serves.
type Runtime interface {
	// Name is the canonical (upper-case) LANGUAGE keyword.
	Name() string
	// Compile turns a stored definition into an executable. Compilation
	// errors carry the UDF name.
	Compile(def *storage.FuncDef) (Callable, error)
}

// Callable is one compiled UDF. Call executes it over an input batch and
// returns the result batch: one column for scalar functions, the declared
// columns for table functions. Runtime errors carry the UDF name; the
// caller validates result cardinality (Shape).
type Callable interface {
	Call(env *Env, in *Batch) (*Batch, error)
}

// Debuggable marks runtimes whose callables execute in the embedded script
// interpreter and therefore honor the Env.Invoke trace hook — the seam both
// the in-server remote debugger and devudf's local debug sessions attach
// to. Runtimes that run native code (GO) do not implement it.
type Debuggable interface {
	Runtime
	// Debuggable reports whether compiled callables can run under an
	// interpreter trace hook.
	Debuggable() bool
}

// IsDebuggable reports whether a runtime supports interpreter-level
// debugging.
func IsDebuggable(rt Runtime) bool {
	d, ok := rt.(Debuggable)
	return ok && d.Debuggable()
}

// ParallelSafe marks callables the engine may invoke concurrently over
// disjoint morsels of one batch, sharing a single Env: the callable must
// not mutate the Env or any argument column, and its function must be
// pure enough that splitting a batch preserves its result (true for the
// native GO runtime's registered functions, false for interpreter-backed
// runtimes, whose interpreter state is single-threaded).
type ParallelSafe interface {
	// ParallelSafe reports whether concurrent morsel invocation is safe.
	ParallelSafe() bool
}

// InvokeHook intercepts one interpreter-backed UDF invocation: it receives
// the UDF's name, the interpreter about to run it, the source lines of the
// compiled wrapper module, and the call thunk, and must return the thunk's
// result, calling it exactly once and on the calling goroutine, so that the
// invocation stays inside the statement that made it. The wire server's
// remote debugger installs one to run the invocation under its trace hook.
type InvokeHook func(name string, in *script.Interp, lines []string,
	call func() (script.Value, error)) (script.Value, error)

// Executor runs the queries of a UDF's loopback connection (_conn).
type Executor interface {
	Execute(sql string) (*storage.Table, error)
}

// Env is the per-statement invocation environment the engine (or a local
// runner) hands to Callable.Call. One Env spans all row calls of a
// tuple-at-a-time loop, so callables may memoize prepared state in it.
type Env struct {
	// FS backs UDF file access (os.listdir / open); nil means no file
	// system.
	FS core.FS
	// MaxSteps bounds interpreter steps per invocation (0 = unlimited).
	MaxSteps int64
	// MaxWall bounds one invocation's wall clock (0 = unlimited) — the
	// cross-runtime generalization of MaxSteps. Interpreter-backed
	// runtimes abort mid-run via their step-poll hook; native runtimes
	// cannot be preempted, so the engine checks the elapsed time after
	// the call returns.
	MaxWall time.Duration
	// Interrupt, when set, reports a non-nil typed error from Err once the
	// invoking statement has been cancelled. Interpreter-backed runtimes
	// poll it between steps so a cancelled query preempts a long-running
	// UDF; native runtimes may check it between rows if they choose. An
	// interface, not a func, so that the statement's own signal arms it
	// without allocating a method value.
	Interrupt interface{ Err() error }
	// Stdout receives print() output; nil discards it.
	Stdout io.Writer
	// Loopback, when set, runs the queries the UDF sends through its _conn
	// object (paper §2.3). Interpreter-less runtimes ignore it.
	Loopback Executor
	// Invoke, when set, intercepts interpreter-backed invocations (the
	// remote debugger's entry point). Native runtimes ignore it.
	Invoke InvokeHook

	memo map[any]any
}

// Memo returns the value built for key on this Env, constructing it once —
// how the PYTHON runtime reuses one prepared interpreter across a
// tuple-at-a-time row loop while batch calls (one Env each) stay isolated.
func (e *Env) Memo(key any, build func() (any, error)) (any, error) {
	if v, ok := e.memo[key]; ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	if e.memo == nil {
		e.memo = map[any]any{}
	}
	e.memo[key] = v
	return v, nil
}

// InterruptFor builds the per-invocation interrupt poll for the named
// UDF: the Env's cancellation hook combined with a MaxWall deadline
// starting at start. Nil when neither is armed, so unguarded invocations
// install nothing.
func (e *Env) InterruptFor(name string, start time.Time) func() error {
	if e.Interrupt == nil && e.MaxWall <= 0 {
		return nil
	}
	cancel, bud := e.Interrupt, e.MaxWall
	var deadline time.Time
	if bud > 0 {
		deadline = start.Add(bud)
	}
	return func() error {
		if cancel != nil {
			if err := cancel.Err(); err != nil {
				return err
			}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return core.Errorf(core.KindResource,
				"UDF %s exceeded the wall-clock budget (%v)", name, bud)
		}
		return nil
	}
}

// Out returns the Env's stdout, defaulting to io.Discard.
func (e *Env) Out() io.Writer {
	if e.Stdout != nil {
		return e.Stdout
	}
	return io.Discard
}

// WrapErr gives a runtime failure its UDF name context; errors already
// wrapped for this same UDF pass through unchanged (nested UDF failures
// keep their own name and gain the caller's).
func WrapErr(name string, err error) error {
	if err == nil {
		return nil
	}
	// Cancellation and budget errors keep their typed kind: the wire
	// protocol and the client retry logic classify on it, and "UDF x
	// failed" would misattribute an engine-initiated abort to user code.
	switch core.KindOf(err) {
	case core.KindCancelled, core.KindResource:
		return err
	}
	msg := err.Error()
	if ce, ok := err.(*core.Error); ok {
		msg = ce.Msg
	}
	if strings.HasPrefix(msg, "UDF "+name+" ") {
		return err
	}
	return core.Errorf(core.KindRuntime, "UDF %s failed: %s", name, msg)
}

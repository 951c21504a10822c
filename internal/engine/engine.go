// Package engine implements the query executor of the embedded MonetDB-like
// database: DDL/DML, SELECT evaluation, and — centrally for the paper —
// UDF execution in the operator-at-a-time model (whole columns per call)
// dispatched through the udfrt runtime registry keyed by the LANGUAGE
// clause (the embedded PYTHON interpreter and the native GO runtime ship
// built in), loopback queries via the _conn object, the tuple-at-a-time
// mode of §2.4 for comparison, and the server-side sys_extract function
// that devUDF substitutes for a UDF call to pull its input data out for
// local debugging.
package engine

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/udfrt"

	// Register the sklearn/mllib module shims with the script runtime so
	// UDFs can import them, matching the paper's Listing 1.
	_ "repro/internal/mllib"
	// Register the native GO runtime (the PYTHON runtime registers through
	// extract.go's direct pyrt import).
	_ "repro/internal/udfrt/gort"
)

// Mode selects the UDF processing model (paper §2.4).
type Mode int

const (
	// ModeOperatorAtATime calls a scalar UDF once with whole columns
	// (MonetDB's model).
	ModeOperatorAtATime Mode = iota
	// ModeTupleAtATime calls a scalar UDF once per row (the Postgres/MySQL
	// model, simulated per §2.4 "by issuing a loop over the input tuples").
	ModeTupleAtATime
)

func (m Mode) String() string {
	if m == ModeTupleAtATime {
		return "tuple-at-a-time"
	}
	return "operator-at-a-time"
}

// DB is an embedded database instance.
type DB struct {
	mu  sync.Mutex
	cat *storage.Catalog
	// FS backs COPY INTO and UDF file access (os.listdir / open). Defaults
	// to the process file system.
	FS core.FS
	// Mode selects the UDF processing model.
	Mode Mode
	// MaxUDFSteps bounds each UDF invocation's interpreter steps
	// (0 = unlimited).
	MaxUDFSteps int64
	// Workers caps morsel-parallel kernel execution: 0 selects
	// GOMAXPROCS, 1 pins execution to the query goroutine.
	Workers int
	// MorselSize overrides the rows-per-morsel split
	// (0 = vec.DefaultMorselSize). Inputs smaller than one morsel always
	// run inline.
	MorselSize int
	// MaxResultRows bounds the rows a single SELECT may materialize
	// (0 = unlimited). Oversize results abort with a typed KindResource
	// error instead of shipping; queries that want big scans add a LIMIT.
	MaxResultRows int64
	// MaxUDFWall bounds the wall-clock time of one UDF runtime invocation
	// (0 = unlimited) — the generalization of MaxUDFSteps to runtimes
	// without an interpreter step counter (native GO). Interpreter-backed
	// runtimes abort mid-run; native calls are measured and fail the
	// statement once over budget.
	MaxUDFWall time.Duration

	// QueryLog, when set, backs the sys.query_log virtual table with the
	// span breakdowns of recently finished queries. The wire server (or
	// any embedder) records entries; the engine only reads it.
	QueryLog *obs.QueryLog

	// compiled caches each catalog function's callable; apply drops an
	// entry when its definition is replaced or dropped. Guarded by mu.
	compiled map[*storage.FuncDef]udfrt.Callable

	// Durability hooks installed by SetPersistence (see persist.go):
	// onCommit is offered every committed Change under mu; checkpoint backs
	// DB.Checkpoint.
	onCommit   func(Change) error
	checkpoint func() error

	// metrics is set once by EnableObs before the DB starts serving and
	// read without mu on hot paths; nil means observability is off.
	metrics *dbMetrics
	// queriesCancelled counts statements aborted by an interrupt (client
	// disconnect, deadline, server stop). Atomic so a metrics scrape never
	// takes the database lock.
	queriesCancelled atomic.Uint64

	plans planCache // its own lock, never held while a statement runs
}

// NewDB creates an empty database.
func NewDB() *DB {
	return &DB{
		cat:      storage.NewCatalog(),
		FS:       core.OSFS{},
		compiled: map[*storage.FuncDef]udfrt.Callable{},
	}
}

// RegisterTable installs a pre-built table into the catalog under the
// database lock — the bulk-load path for data generators and tests whose
// volumes would be impractical to feed through INSERT statements.
func (db *DB) RegisterTable(t *storage.Table) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.mutate(Change{Kind: ChangeCreateTable, Table: t}, nil)
}

// Conn is a session: credentials plus the database handle. The wire server
// creates one per authenticated client; the encryption option of the
// extract function derives its key from the session password. A Conn holds
// nothing of the statements it runs: each runs in a frame of its own.
type Conn struct {
	DB       *DB
	User     string
	Password string
}

// Result is the outcome of one statement.
type Result struct {
	// Table holds the result set; nil for statements without one.
	Table *storage.Table
	// Msg is the status tag ("CREATE TABLE", "INSERT 3", ...).
	Msg string
}

// ExecOpts is the per-call value of ExecWith: what one statement carries
// besides its text and binds. The zero value runs the statement
// uninterruptible, untraced, undebugged and with UDF output discarded. A
// UDF's loopback query runs under the ExecOpts of the statement that called
// the UDF.
type ExecOpts struct {
	// Interrupt is the statement's cancellation signal.
	Interrupt Interrupt
	// Trace receives the statement's parse, bind, exec, UDF and WAL spans.
	Trace *obs.Trace
	// Invoke, when set, intercepts every interpreter-backed UDF invocation
	// of the statement: it receives the UDF's name, the interpreter about to
	// run it, the source lines of the compiled wrapper module, and the call
	// thunk, and must return the thunk's result (calling it exactly once, on
	// the calling goroutine). The wire server's remote debugger uses it to
	// run the invocation under the trace hook. Only debuggable runtimes
	// (udfrt.IsDebuggable) route calls through it.
	Invoke udfrt.InvokeHook
	// Stdout receives print() output of the statement's UDFs — the paper's
	// "print debugging" channel; nil discards it.
	Stdout io.Writer
}

// frame is one statement execution: the session it runs on, its ExecOpts,
// and the binds of its placeholders (length-1 columns, one per slot: the
// caller's arguments, then the text's own literals). Evaluation hangs off
// the frame, so nothing a statement carries is stored on Conn or DB, and a
// UDF's loopback query runs in a child frame of its own.
type frame struct {
	*Conn
	ExecOpts
	binds []*storage.Column
	// res is the statement's Result, held here so that the frame replaces
	// the allocation of the Result every statement returns.
	res Result
}

// Exec executes one statement under the database lock (see ExecWith).
func (c *Conn) Exec(sql string) (*Result, error) { return c.ExecWith(ExecOpts{}, sql) }

// ExecContext is Exec with a context, honored for real: cancelling the
// context (or passing one with a deadline) aborts the statement
// mid-execution at the next pipeline-stage or morsel-boundary checkpoint
// with a typed core.KindCancelled error, releasing the database lock
// normally. A statement that reports spans passes its obs.Trace in
// ExecOpts (ExecWith).
func (c *Conn) ExecContext(ctx context.Context, sql string) (*Result, error) {
	return c.ExecWith(ExecOpts{Interrupt: InterruptFrom(ctx)}, sql)
}

// ExecWith is ExecContext without the context detour: the wire server's
// per-query path, where the context allocation and value lookup are
// measurable against sub-microsecond statements, and the door for the
// options a context does not carry (ExecOpts). Embedded callers normally
// use ExecContext. The text runs as a prepared statement would: resolved to
// a plan through the plan cache without the database lock (see
// planCacheSize), its literals bound, and executed by Stmt.ExecBound.
func (c *Conn) ExecWith(o ExecOpts, sql string) (*Result, error) {
	var s Stmt
	if err := c.adhoc(&s, sql, o.Trace); err != nil {
		return nil, err
	}
	return s.ExecBound(o, nil)
}

// guarded is the one way a single statement runs: under the database
// lock, timed as the exec span. Nothing re-enters it under the lock
// (loopback queries run through frame.Execute).
func (f *frame) guarded(st sqlparse.Statement) (*Result, error) {
	db := f.DB
	db.mu.Lock()
	defer db.mu.Unlock()
	// A statement that waited out its deadline behind a slow predecessor
	// aborts before doing any work.
	if err := f.interruptErr(); err != nil {
		db.queriesCancelled.Add(1)
		return nil, err
	}
	et := f.Trace.StartStage(obs.StageExec)
	res, err := f.execStmt(st)
	et.Done()
	if err != nil && core.IsCancelled(err) {
		db.queriesCancelled.Add(1)
	}
	return res, err
}

// QueriesCancelled reports how many statements this DB has aborted on an
// interrupt (client disconnect, deadline, server stop).
func (db *DB) QueriesCancelled() uint64 { return db.queriesCancelled.Load() }

// ExecAll executes a semicolon-separated script, stopping at the first
// error.
func (c *Conn) ExecAll(sql string) ([]*Result, error) {
	stmts, err := sqlparse.ParseAll(sql)
	if err != nil {
		return nil, err
	}
	c.DB.mu.Lock()
	defer c.DB.mu.Unlock()
	var out []*Result
	for _, st := range stmts {
		r, err := (&frame{Conn: c}).execStmt(st)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// adhoc makes s the statement for ad-hoc text (see resolve), refusing
// placeholders of the text's own: ad hoc, nothing binds them.
func (c *Conn) adhoc(s *Stmt, sql string, tr *obs.Trace) error {
	if err := c.resolve(s, sql, tr); err != nil {
		return err
	}
	if n := s.plan.nparams; n > 0 {
		return core.Errorf(core.KindConstraint,
			"statement expects %d bind parameter(s); use Prepare and pass arguments", n)
	}
	return nil
}

func (f *frame) execStmt(st sqlparse.Statement) (*Result, error) {
	db := f.DB
	switch st := st.(type) {
	case *sqlparse.CreateTable:
		t := storage.NewTable(st.Name, st.Schema)
		return f.status("CREATE TABLE", db.mutate(Change{Kind: ChangeCreateTable, Table: t}, f.Trace))
	case *sqlparse.DropTable:
		// The log names the table as the catalog spells it.
		t, err := db.cat.Table(st.Name)
		if err != nil {
			return nil, err
		}
		return f.status("DROP TABLE", db.mutate(Change{Kind: ChangeDropTable, Name: t.Name}, f.Trace))
	case *sqlparse.CreateFunction:
		return f.status("CREATE FUNCTION", f.createFunction(st))
	case *sqlparse.DropFunction:
		fn, err := db.cat.Function(st.Name)
		if err != nil {
			return nil, err
		}
		return f.status("DROP FUNCTION", db.mutate(Change{Kind: ChangeDropFunction, Name: fn.Name}, f.Trace))
	case *sqlparse.Insert:
		return f.insert(st)
	case *sqlparse.CopyInto:
		return f.copyInto(st)
	case *sqlparse.Select:
		t, err := f.evalSelect(st)
		if err != nil {
			return nil, err
		}
		f.res.Table = t
		return f.status(fmt.Sprintf("SELECT %d", t.NumRows()), nil)
	default:
		return nil, core.Errorf(core.KindSyntax, "unsupported statement %T", st)
	}
}

// status completes the statement's Result, which the frame holds, with its
// tag; or returns err.
func (f *frame) status(tag string, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	f.res.Msg = tag
	return &f.res, nil
}

func (f *frame) createFunction(st *sqlparse.CreateFunction) error {
	if isBuiltinName(st.Name) {
		return core.Errorf(core.KindConstraint, "cannot create function %q: name is reserved", st.Name)
	}
	// The parser accepts any LANGUAGE; creation requires a registered
	// runtime so a typo'd language fails here rather than at first call.
	if _, err := udfrt.Lookup(st.Language); err != nil {
		return err
	}
	def := &storage.FuncDef{
		ID:       f.DB.funcID(st.Name),
		Name:     st.Name,
		Params:   st.Params,
		Language: st.Language,
		Body:     st.Body,
		Returns:  st.Returns,
		IsTable:  st.IsTable,
	}
	return f.DB.mutate(Change{Kind: ChangeCreateFunction, Func: def, Replace: st.OrReplace}, f.Trace)
}

func (f *frame) insert(st *sqlparse.Insert) (*Result, error) {
	t, err := f.DB.cat.Table(st.Table)
	if err != nil {
		return nil, err
	}
	n0 := t.NumRows()
	if err := f.DB.commitAppend(t, n0, f.appendRows(t, st.Rows), f.Trace); err != nil {
		return nil, err
	}
	return f.status(fmt.Sprintf("INSERT %d", len(st.Rows)), nil)
}

// appendRows appends an INSERT's rows to t, stopping at the first that
// fails.
func (f *frame) appendRows(t *storage.Table, rows [][]sqlparse.Expr) error {
	for _, row := range rows {
		vals := make([]any, len(row))
		for i, e := range row {
			v, err := f.constEval(e)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		if err := t.AppendRow(vals); err != nil {
			return err
		}
	}
	return nil
}

// commitAppend commits the rows appended to t from row n0 on (see commit
// for tr). If the append failed (err) or the commit is refused, it drops
// them instead: INSERT and COPY are all-or-nothing.
func (db *DB) commitAppend(t *storage.Table, n0 int, err error, tr *obs.Trace) error {
	if err == nil {
		err = db.commit(Change{Kind: ChangeInsert, Name: t.Name, Table: t, From: n0, To: t.NumRows()}, tr)
	}
	if err != nil {
		t.Truncate(n0)
	}
	return err
}

// constEval evaluates a literal (possibly negated) INSERT value, or a bind
// parameter of a prepared INSERT.
func (f *frame) constEval(e sqlparse.Expr) (any, error) {
	switch e := e.(type) {
	case *sqlparse.IntLit, *sqlparse.FloatLit, *sqlparse.StrLit, *sqlparse.BoolLit, *sqlparse.NullLit:
		return sqlparse.LiteralValue(e)
	case *sqlparse.Placeholder:
		col, err := f.bindColumn(e)
		if err != nil {
			return nil, err
		}
		return col.Value(0), nil
	case *sqlparse.UnaryExpr:
		if e.Op == "-" {
			v, err := f.constEval(e.X)
			if err != nil {
				return nil, err
			}
			switch v := v.(type) {
			case int64:
				return -v, nil
			case float64:
				return -v, nil
			}
		}
		return nil, core.Errorf(core.KindSyntax, "INSERT values must be literals")
	case *sqlparse.BinaryExpr:
		l, err := f.constEval(e.L)
		if err != nil {
			return nil, err
		}
		r, err := f.constEval(e.R)
		if err != nil {
			return nil, err
		}
		li, lok := l.(int64)
		ri, rok := r.(int64)
		if lok && rok {
			switch e.Op {
			case "+":
				return li + ri, nil
			case "-":
				return li - ri, nil
			case "*":
				return li * ri, nil
			}
		}
		return nil, core.Errorf(core.KindSyntax, "INSERT values must be literals")
	default:
		return nil, core.Errorf(core.KindSyntax, "INSERT values must be literals")
	}
}

func (f *frame) copyInto(st *sqlparse.CopyInto) (*Result, error) {
	t, err := f.DB.cat.Table(st.Table)
	if err != nil {
		return nil, err
	}
	data, err := f.DB.FS.ReadFile(st.Path)
	if err != nil {
		return nil, err
	}
	n0 := t.NumRows()
	n, err := t.LoadCSV(bytes.NewReader(data), st.Header)
	if err := f.DB.commitAppend(t, n0, err, f.Trace); err != nil {
		return nil, err
	}
	return f.status(fmt.Sprintf("COPY %d", n), nil)
}

// Catalog exposes the catalog for in-process embedders (the devudf package
// uses it in local/embedded mode; the wire server goes through SQL).
func (db *DB) Catalog() *storage.Catalog { return db.cat }

// Lock runs fn with the database lock held, for embedders that need a
// consistent multi-statement view.
func (db *DB) Lock(fn func(cat *storage.Catalog) error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return fn(db.cat)
}

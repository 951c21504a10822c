package engine

import (
	"sync/atomic"

	"repro/internal/storage"
	"repro/internal/udfrt"
)

// callableFor returns the compiled callable of a catalog definition,
// compiling it through the runtime serving its LANGUAGE on first use. The
// cache is keyed by the catalog's entry: apply drops it whenever a
// statement or WAL replay replaces or drops that entry.
func (f *frame) callableFor(def *storage.FuncDef) (udfrt.Callable, error) {
	if call, ok := f.DB.compiled[def]; ok {
		return call, nil
	}
	rt, err := udfrt.Lookup(def.Language)
	if err != nil {
		return nil, err
	}
	call, err := rt.Compile(def)
	if err != nil {
		return nil, err
	}
	f.DB.compiled[def] = call
	return call, nil
}

// udfEnv builds the statement's invocation environment handed to a
// runtime: the database's file system and budgets, and the frame's
// interrupt (when armed), print channel, loopback connection and invoke
// hook.
func (f *frame) udfEnv() *udfrt.Env {
	env := &udfrt.Env{
		FS:       f.DB.FS,
		MaxSteps: f.DB.MaxUDFSteps,
		MaxWall:  f.DB.MaxUDFWall,
		Stdout:   f.Stdout,
		Loopback: f,
		Invoke:   f.Invoke,
	}
	if f.Interrupt.armed() {
		env.Interrupt = &f.Interrupt
	}
	return env
}

// callScalarUDF executes a scalar UDF over argument columns in the active
// processing mode, returning the result column (length-1 results broadcast
// at projection time). isColumn follows udfArgColumns's calling
// convention: columnar arguments pass as lists, constants as scalars.
func (f *frame) callScalarUDF(name string, argCols []*storage.Column, isColumn []bool) (*storage.Column, error) {
	def, err := f.DB.cat.Function(name)
	if err != nil {
		return nil, err
	}
	cols, err := udfrt.Run(def, udfrt.NewBatch(argCols, isColumn), false, func(in *udfrt.Batch) (*udfrt.Batch, error) {
		call, err := f.callableFor(def)
		if err != nil {
			return nil, err
		}
		env := f.udfEnv()
		if f.DB.Mode == ModeTupleAtATime {
			return f.callScalarUDFTuple(def, call, env, in)
		}
		if out, ok, err := f.callScalarUDFMorsels(def, call, env, in); err != nil || ok {
			return out, err
		}
		return f.instrumentedCall(def, call, env, in)
	})
	if err != nil {
		return nil, err
	}
	return cols[0], nil
}

// callScalarUDFMorsels runs a parallel-safe scalar UDF batch split into
// morsels across workers — native GO UDF calls ride the same
// morsel-driven pipeline as the built-in kernels. ok=false falls back to
// the single whole-batch call: the runtime is not parallel-safe, the
// batch is too small to win, or a morsel returned a broadcast
// (aggregate-style) result that must be computed over the whole batch.
func (f *frame) callScalarUDFMorsels(def *storage.FuncDef, call udfrt.Callable,
	env *udfrt.Env, in *udfrt.Batch) (*udfrt.Batch, bool, error) {
	ps, ok := call.(udfrt.ParallelSafe)
	if !ok || !ps.ParallelSafe() {
		return nil, false, nil
	}
	p := f.pol()
	// Morsel size 1 would make an aggregate-style UDF's per-morsel scalar
	// result (length 1) indistinguishable from an elementwise one-row
	// result, defeating the broadcast detection below — never split then.
	if p.NumWorkers() == 1 || p.Morsel() < 2 || in.Rows < 2*p.Morsel() {
		return nil, false, nil
	}
	// Every column must be batch-aligned or a length-1 constant: a
	// mis-sized columnar argument passes through Batch.Slice whole and
	// would look aligned to each morsel, silently re-broadcasting where
	// the whole-batch call correctly errors.
	for _, col := range in.Cols {
		if col.Len() != in.Rows && col.Len() != 1 {
			return nil, false, nil
		}
	}
	nm := p.NumMorsels(in.Rows)
	outs := make([]*storage.Column, nm)
	errs := make([]error, nm)
	var broadcast atomic.Bool
	p.RunIdx(in.Rows, func(m, lo, hi int) {
		if broadcast.Load() {
			return
		}
		b := in.Slice(lo, hi)
		ob, err := f.instrumentedCall(def, call, env, b)
		if err != nil {
			errs[m] = err
			return
		}
		cols, err := udfrt.Shape(def, ob, b.Rows, false)
		if err != nil {
			errs[m] = err
			return
		}
		if col := cols[0]; col.Len() != b.Rows {
			broadcast.Store(true)
			return
		}
		outs[m] = cols[0]
	})
	// UDF errors are user-authored and row-dependent, so unlike the
	// engine kernels every morsel runs to completion and the earliest
	// morsel's error wins — the reported message is deterministic.
	for _, err := range errs {
		if err != nil {
			return nil, false, err
		}
	}
	// An interrupted run leaves unclaimed morsels' outputs nil; abort
	// before stitching a partial result.
	if err := f.interruptErr(); err != nil {
		return nil, false, err
	}
	if broadcast.Load() {
		return nil, false, nil
	}
	out := storage.NewColumn(def.Returns[0].Name, def.Returns[0].Type)
	out.Reserve(in.Rows)
	for _, mc := range outs {
		if err := out.AppendAll(mc); err != nil {
			return nil, false, err
		}
	}
	return columnBatch(out), true, nil
}

// columnBatch is the result batch holding one column.
func columnBatch(col *storage.Column) *udfrt.Batch {
	return &udfrt.Batch{Cols: []*storage.Column{col}, Rows: col.Len()}
}

// callScalarUDFTuple is the §2.4 tuple-at-a-time model: one runtime call
// per input row, scalar in, scalar out. The shared Env lets
// interpreter-based runtimes reuse one prepared instance across the loop.
func (f *frame) callScalarUDFTuple(def *storage.FuncDef, call udfrt.Callable,
	env *udfrt.Env, in *udfrt.Batch) (*udfrt.Batch, error) {
	out := storage.NewColumn(def.Returns[0].Name, def.Returns[0].Type)
	for r := 0; r < in.Rows; r++ {
		if err := f.interruptErr(); err != nil {
			return nil, err
		}
		ob, err := f.instrumentedCall(def, call, env, in.Row(r))
		if err != nil {
			return nil, err
		}
		cols, err := udfrt.Shape(def, ob, 1, false)
		if err != nil {
			return nil, err
		}
		if err := out.AppendCell(cols[0], 0); err != nil {
			return nil, err
		}
	}
	return columnBatch(out), nil
}

// callTableUDF executes a RETURNS TABLE(...) UDF (or a scalar UDF used in
// FROM) through its runtime; length-1 result columns broadcast to the
// longest one.
func (f *frame) callTableUDF(def *storage.FuncDef, argCols []*storage.Column, isColumn []bool) (*storage.Table, error) {
	cols, err := udfrt.Run(def, udfrt.NewBatch(argCols, isColumn), true, func(in *udfrt.Batch) (*udfrt.Batch, error) {
		call, err := f.callableFor(def)
		if err != nil {
			return nil, err
		}
		return f.instrumentedCall(def, call, f.udfEnv(), in)
	})
	if err != nil {
		return nil, err
	}
	return &storage.Table{Name: def.Name, Cols: cols}, nil
}

// Execute runs a UDF's loopback query (_conn.execute, paper §2.3) under
// the lock its caller holds: the frame is its UDFs' udfrt.Executor. It
// resolves like ExecWith and runs in a child frame: the calling
// statement's ExecOpts, the text's own binds.
func (f *frame) Execute(sql string) (*storage.Table, error) {
	var s Stmt
	if err := f.adhoc(&s, sql, f.Trace); err != nil {
		return nil, err
	}
	res, err := (&frame{Conn: f.Conn, ExecOpts: f.ExecOpts, binds: s.lits}).execStmt(s.plan.st)
	if err != nil {
		return nil, err
	}
	return res.Table, nil
}

package engine

import (
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/udfrt"
	"repro/internal/udfrt/gort"
	"repro/internal/udfrt/pyrt"
)

// compilerFor picks the runtime a LANGUAGE clause names: PYTHON compiles
// with pyrt, GO with gort. Any other language is refused.
func compilerFor(language string) (func(*storage.FuncDef) (udfrt.Callable, error), error) {
	switch udfrt.Canonical(language) {
	case udfrt.Python:
		return pyrt.New().Compile, nil
	case udfrt.Go:
		return gort.New().Compile, nil
	}
	return nil, core.Errorf(core.KindConstraint,
		"no runtime for language %q (have %s, %s)", language, udfrt.Go, udfrt.Python)
}

// CompileUDF compiles a catalog definition with the runtime its LANGUAGE
// picks. The engine, devUDF's local runner and the runtime conformance
// suite all compile through it.
func CompileUDF(def *storage.FuncDef) (udfrt.Callable, error) {
	compile, err := compilerFor(def.Language)
	if err != nil {
		return nil, err
	}
	return compile(def)
}

// compiled is what def compiles to with the runtime its LANGUAGE picks:
// its callable, or the error compiling gave. apply keeps it on the entry.
func compiled(def *storage.FuncDef) any {
	call, err := CompileUDF(def)
	if err != nil {
		return err
	}
	return call
}

// callableFor returns the callable apply compiled a catalog entry to, or
// the error compiling it gave. apply installs no entry without one.
func callableFor(def *storage.FuncDef) (udfrt.Callable, error) {
	if err, ok := def.Compiled.(error); ok {
		return nil, err
	}
	return def.Compiled.(udfrt.Callable), nil
}

// udfEnv builds the statement's invocation environment handed to a
// runtime: the database's file system and budgets, and the frame's
// interrupt (when armed), print channel, loopback connection and invoke
// hook.
func (f *frame) udfEnv() *udfrt.Env {
	env := &udfrt.Env{
		FS:       f.DB.FS,
		MaxSteps: f.DB.MaxUDFSteps,
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
		call, err := callableFor(def)
		if err != nil {
			return nil, err
		}
		env := f.udfEnv()
		if f.DB.Mode == ModeTupleAtATime {
			return f.callScalarUDFTuple(def, call, env, in)
		}
		if ps, ok := call.(udfrt.ParallelSafe); ok && ps.ParallelSafe() {
			return f.callScalarUDFMorsels(def, call, env, in)
		}
		return f.instrumentedCall(def, call, env, in)
	})
	if err != nil {
		return nil, err
	}
	return cols[0], nil
}

// callScalarUDFMorsels runs an element-wise (parallel-safe) scalar UDF,
// its batch split into morsels across workers when there are several
// workers and at least two morsels of rows: native GO UDF calls ride the
// same morsel-driven pipeline as the built-in kernels, the calling
// goroutine claiming morsels beside the helpers. Each call, over the
// whole batch or a morsel, is held to the element-wise contract
// (callElementwise), so the answer is the same however the batch splits.
// UDF errors are user-authored and row-dependent; RunErr answers the
// lowest failing morsel's, so the reported message is deterministic.
func (f *frame) callScalarUDFMorsels(def *storage.FuncDef, call udfrt.Callable,
	env *udfrt.Env, in *udfrt.Batch) (*udfrt.Batch, error) {
	p := f.pol()
	split := p.NumWorkers() > 1 && in.Rows >= 2*p.Morsel()
	// Every column must be batch-aligned or a length-1 constant: a
	// mis-sized columnar argument passes through Batch.Slice whole and
	// would look aligned to each morsel, silently re-broadcasting where
	// the whole-batch call correctly errors.
	for _, col := range in.Cols {
		split = split && (col.Len() == in.Rows || col.Len() == 1)
	}
	if !split {
		return f.callElementwise(def, call, env, in)
	}
	outs := make([]*storage.Column, p.NumMorsels(in.Rows))
	err := p.RunErr(in.Rows, func(lo, hi int) error {
		b := in.Slice(lo, hi)
		ob, err := f.callElementwise(def, call, env, b)
		if err != nil {
			return err
		}
		cols, err := udfrt.Shape(def, ob, b.Rows, false)
		if err != nil {
			return err
		}
		outs[lo/p.Morsel()] = cols[0]
		return nil
	})
	if err != nil {
		return nil, err
	}
	// An interrupted run leaves unclaimed morsels' outputs nil; abort
	// before stitching a partial result.
	if err := f.interruptErr(); err != nil {
		return nil, err
	}
	out := storage.NewColumn(def.Returns[0].Name, def.Returns[0].Type)
	out.Reserve(in.Rows)
	for _, mc := range outs {
		if err := out.AppendAll(mc); err != nil {
			return nil, err
		}
	}
	return columnBatch(out), nil
}

// callElementwise makes one call of an element-wise UDF over b and refuses
// an answer that is not one value per input row. The refusal does not
// depend on b's row count, so it reads the same however the batch split.
func (f *frame) callElementwise(def *storage.FuncDef, call udfrt.Callable,
	env *udfrt.Env, b *udfrt.Batch) (*udfrt.Batch, error) {
	ob, err := f.instrumentedCall(def, call, env, b)
	if err == nil && ob != nil && len(ob.Cols) == 1 && ob.Cols[0].Len() != b.Rows {
		return nil, core.Errorf(core.KindConstraint,
			"UDF %s returned other than one value per input row, but it is registered element-wise; register it with RegisterGoUDF", def.Name)
	}
	return ob, err
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
		call, err := callableFor(def)
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

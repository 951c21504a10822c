package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"sync/atomic"

	"strings"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/udfrt"
)

// compiledUDF caches a runtime-compiled callable, keyed by a hash of the
// definition so CREATE OR REPLACE invalidates naturally.
type compiledUDF struct {
	hash string
	call udfrt.Callable
}

// defHash fingerprints everything a runtime compiles against.
func defHash(def *storage.FuncDef) string {
	h := sha256.New()
	for _, part := range []string{def.Name, def.Language, def.Body} {
		io.WriteString(h, part)
		h.Write([]byte{0})
	}
	for _, s := range []storage.Schema{def.Params, def.Returns} {
		for _, c := range s {
			io.WriteString(h, c.Name)
			io.WriteString(h, c.Type.String())
			h.Write([]byte{0})
		}
	}
	if def.IsTable {
		h.Write([]byte{1})
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// callableFor resolves the runtime serving a definition's LANGUAGE and
// returns its compiled callable, from the per-DB cache when the definition
// is unchanged.
func (f *frame) callableFor(def *storage.FuncDef) (udfrt.Callable, error) {
	rt, err := udfrt.Lookup(def.Language)
	if err != nil {
		return nil, err
	}
	h := defHash(def)
	key := strings.ToLower(def.Name)
	if cu, ok := f.DB.compiled[key]; ok && cu.hash == h {
		return cu.call, nil
	}
	call, err := rt.Compile(def)
	if err != nil {
		return nil, err
	}
	f.DB.compiled[key] = &compiledUDF{hash: h, call: call}
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
	if def.IsTable {
		return nil, core.Errorf(core.KindType,
			"%s is a table function; use it in FROM", def.Name)
	}
	if len(argCols) != len(def.Params) {
		return nil, core.Errorf(core.KindConstraint,
			"%s expects %d argument(s), got %d", def.Name, len(def.Params), len(argCols))
	}
	in := udfrt.NewBatch(argCols, isColumn)
	// The logical row count comes from the columnar arguments — a length-1
	// constant must not mask an empty input column. An operator with no
	// input tuples is never invoked: a scalar UDF over an empty column
	// yields an empty column, not a broadcast 1-row result.
	if n, ok := columnarRows(argCols, isColumn); ok {
		if n == 0 {
			return storage.NewColumn(def.Returns[0].Name, def.Returns[0].Type), nil
		}
		in.Rows = n
	}
	call, err := f.callableFor(def)
	if err != nil {
		return nil, err
	}
	env := f.udfEnv()
	if f.DB.Mode == ModeTupleAtATime {
		return f.callScalarUDFTuple(def, call, env, in)
	}
	if col, ok, err := f.callScalarUDFMorsels(def, call, env, in); err != nil {
		return nil, err
	} else if ok {
		return col, nil
	}
	out, err := f.instrumentedCall(def, call, env, in)
	if err != nil {
		return nil, err
	}
	return scalarResult(def, out, in.Rows)
}

// callScalarUDFMorsels runs a parallel-safe scalar UDF batch split into
// morsels across workers — native GO UDF calls ride the same
// morsel-driven pipeline as the built-in kernels. ok=false falls back to
// the single whole-batch call: the runtime is not parallel-safe, the
// batch is too small to win, or a morsel returned a broadcast
// (aggregate-style) result that must be computed over the whole batch.
func (f *frame) callScalarUDFMorsels(def *storage.FuncDef, call udfrt.Callable,
	env *udfrt.Env, in *udfrt.Batch) (*storage.Column, bool, error) {
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
		col, err := scalarResult(def, ob, b.Rows)
		if err != nil {
			errs[m] = err
			return
		}
		if col.Len() != b.Rows {
			broadcast.Store(true)
			return
		}
		outs[m] = col
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
	return out, true, nil
}

// columnarRows reports the longest columnar argument's length and whether
// any argument is columnar at all.
func columnarRows(argCols []*storage.Column, isColumn []bool) (int, bool) {
	n, has := 0, false
	for i, col := range argCols {
		if i < len(isColumn) && isColumn[i] {
			has = true
			if col.Len() > n {
				n = col.Len()
			}
		}
	}
	return n, has
}

// scalarResult validates a scalar call's result batch: one column with
// either rows values or a single (aggregate-style) value.
func scalarResult(def *storage.FuncDef, out *udfrt.Batch, rows int) (*storage.Column, error) {
	if out == nil || len(out.Cols) != 1 {
		n := 0
		if out != nil {
			n = len(out.Cols)
		}
		return nil, core.Errorf(core.KindConstraint,
			"UDF %s returned %d columns, declared 1", def.Name, n)
	}
	col := out.Cols[0]
	if rows > 0 && col.Len() != rows && col.Len() != 1 {
		return nil, core.Errorf(core.KindConstraint,
			"UDF returned %d rows for %d input rows", col.Len(), rows)
	}
	col.Name = def.Returns[0].Name
	return col, nil
}

// callScalarUDFTuple is the §2.4 tuple-at-a-time model: one runtime call
// per input row, scalar in, scalar out. The shared Env lets
// interpreter-based runtimes reuse one prepared instance across the loop.
func (f *frame) callScalarUDFTuple(def *storage.FuncDef, call udfrt.Callable,
	env *udfrt.Env, in *udfrt.Batch) (*storage.Column, error) {
	out := storage.NewColumn(def.Returns[0].Name, def.Returns[0].Type)
	for r := 0; r < in.Rows; r++ {
		if err := f.interruptErr(); err != nil {
			return nil, err
		}
		ob, err := f.instrumentedCall(def, call, env, in.Row(r))
		if err != nil {
			return nil, err
		}
		col, err := scalarResult(def, ob, 1)
		if err != nil {
			return nil, err
		}
		if err := out.AppendCell(col, 0); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// callTableUDF executes a RETURNS TABLE(...) UDF (or a scalar UDF used in
// FROM) through its runtime; length-1 result columns broadcast to the
// longest one.
func (f *frame) callTableUDF(def *storage.FuncDef, argCols []*storage.Column, isColumn []bool) (*storage.Table, error) {
	if len(argCols) != len(def.Params) {
		return nil, core.Errorf(core.KindConstraint,
			"%s expects %d argument(s), got %d", def.Name, len(def.Params), len(argCols))
	}
	call, err := f.callableFor(def)
	if err != nil {
		return nil, err
	}
	in := udfrt.NewBatch(argCols, isColumn)
	if n, ok := columnarRows(argCols, isColumn); ok && n > 0 {
		in.Rows = n
	}
	out, err := f.instrumentedCall(def, call, f.udfEnv(), in)
	if err != nil {
		return nil, err
	}
	want := len(def.Returns)
	if !def.IsTable {
		want = 1 // scalar function used in FROM: one column, as a table
	}
	if out == nil || len(out.Cols) != want {
		n := 0
		if out != nil {
			n = len(out.Cols)
		}
		return nil, core.Errorf(core.KindConstraint,
			"UDF %s returned %d columns, declared %d", def.Name, n, want)
	}
	t := &storage.Table{Name: def.Name, Cols: out.Cols}
	if err := t.Broadcast(); err != nil {
		return nil, err
	}
	return t, nil
}

func maxColLen(cols []*storage.Column) int {
	n := 0
	for _, c := range cols {
		if c.Len() > n {
			n = c.Len()
		}
	}
	return n
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

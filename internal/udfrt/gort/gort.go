// Package gort is the native GO UDF runtime. An embedder registers a typed
// Go function with DB.RegisterGoUDF (or RegisterGoUDFElementwise), which
// commits a catalog entry whose FuncDef.Native is the function; CREATE
// FUNCTION ... LANGUAGE GO { f } declares another entry that takes entry
// f's function. Compile binds the function the definition carries, and
// calls bind argument columns to its slice parameters by reflection — the
// fast path hands the engine's column vectors to the function directly,
// with zero interpreter boxing.
//
// Supported parameter and result types per SQL type:
//
//	INTEGER → int64 / []int64
//	DOUBLE  → float64 / []float64
//	STRING  → string / []string
//	BOOLEAN → bool / []bool
//	BLOB    → []byte / [][]byte
//
// A slice parameter receives the whole column (length-1 inputs broadcast to
// the batch's row count); a scalar parameter receives the argument's first
// value — the shape for constant arguments. Results mirror the declared
// RETURNS: one value per column, slices for whole columns, scalars for
// single-row results, plus an optional trailing error. NULL inputs arrive
// as Go zero values (the validity bitmap does not cross the boundary), and
// native results never contain NULLs.
//
// RegisterGoUDFElementwise is a contract, not a hint. The function states
// that row i of its result depends only on row i of its arguments, that it
// may be called on any slice of a batch from several goroutines at once,
// and that it keeps no argument slice after it returns. The engine then
// splits a projection's batch into morsels, and an aggregate over the
// function (SUM(f(col))) calls it once per morsel of the aggregated rows. A
// constant argument of the aggregate counts every row (SUM(f(2)) adds f(2)
// once per row). The engine refuses every breach it can see: a function
// that takes a slice and returns a scalar is refused at registration, and
// an answer whose length is not its input's row count is a constraint error
// at the call, whatever the worker count. A breach no check can see (a
// prefix sum answers one value per row) restarts at every morsel. Plain
// RegisterGoUDF keeps one call per batch. An element-wise function's answer
// may alias its argument (return x): the engine reduces each morsel's
// answer before it reuses that morsel's argument buffers for the next one.
//
// CONTRACT — argument slices are READ-ONLY. The zero-copy fast path may
// hand a function the engine's own storage vectors (a column reference
// passes the stored table's backing slice); mutating one in place corrupts
// the table for every later query. Always allocate fresh slices for
// results, never write into an argument.
package gort

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/udfrt"
)

// Name is the LANGUAGE keyword this runtime serves.
const Name = udfrt.Go

// Runtime is the GO runtime singleton.
type Runtime struct{}

// New returns the GO runtime.
func New() *Runtime { return &Runtime{} }

// InferDef builds the catalog definition that carries fn: parameter and
// result SQL types from the reflected signature, IsTable when the function
// returns more than one column, Native and Elementwise from its arguments.
// Parameter names are arg1..argN and result names col1..colN ("result" for
// scalars) — SQL-side CREATE FUNCTION can declare friendlier ones. An
// element-wise function must answer a slice wherever it takes one.
func InferDef(name string, fn any, elementwise bool) (*storage.FuncDef, error) {
	v := reflect.ValueOf(fn)
	if !v.IsValid() || v.Kind() != reflect.Func {
		return nil, core.Errorf(core.KindType, "Go UDF %s: not a function (%T)", name, fn)
	}
	params, returns, err := signatureSchemas(name, v.Type(), elementwise)
	if err != nil {
		return nil, err
	}
	return &storage.FuncDef{
		Name:        name,
		Params:      params,
		Returns:     returns,
		Language:    Name,
		IsTable:     len(returns) > 1,
		Native:      fn,
		Elementwise: elementwise,
	}, nil
}

// signatureSchemas validates the type of the function named name
// and derives parameter/result schemas with placeholder names. An
// element-wise function that takes a column must not answer a scalar: one
// value for many rows is an aggregate, which only a whole-batch call gets
// right.
func signatureSchemas(name string, t reflect.Type, elementwise bool) (params, returns storage.Schema, err error) {
	if t.IsVariadic() {
		return nil, nil, core.Errorf(core.KindType, "Go UDF %s: variadic functions are not supported", name)
	}
	takesColumn := false
	for i := 0; i < t.NumIn(); i++ {
		st, isSlice, ok := sqlType(t.In(i))
		if !ok {
			return nil, nil, core.Errorf(core.KindType, "Go UDF %s: parameter %d: unsupported Go UDF type %s", name, i+1, t.In(i))
		}
		takesColumn = takesColumn || isSlice
		params = append(params, storage.ColumnDef{Name: fmt.Sprintf("arg%d", i+1), Type: st})
	}
	nOut := t.NumOut()
	if nOut > 0 && t.Out(nOut-1) == errType {
		nOut--
	}
	if nOut == 0 {
		return nil, nil, core.Errorf(core.KindType, "Go UDF %s: must return at least one value", name)
	}
	for i := 0; i < nOut; i++ {
		st, isSlice, ok := sqlType(t.Out(i))
		if !ok {
			return nil, nil, core.Errorf(core.KindType, "Go UDF %s: result %d: unsupported Go UDF type %s", name, i+1, t.Out(i))
		}
		if elementwise && takesColumn && !isSlice {
			return nil, nil, core.Errorf(core.KindType,
				"Go UDF %s: takes a column but returns one value, so it is not element-wise; register it with RegisterGoUDF", name)
		}
		col := fmt.Sprintf("col%d", i+1)
		if nOut == 1 {
			col = "result"
		}
		returns = append(returns, storage.ColumnDef{Name: col, Type: st})
	}
	return params, returns, nil
}

var errType = reflect.TypeOf((*error)(nil)).Elem()

// sqlType maps a Go parameter/result type to its storage type, reporting
// whether it is the whole-column (slice) form and whether t is supported
// at all.
func sqlType(t reflect.Type) (st storage.Type, isSlice, ok bool) {
	switch t {
	case reflect.TypeOf(int64(0)):
		return storage.TInt, false, true
	case reflect.TypeOf(float64(0)):
		return storage.TFloat, false, true
	case reflect.TypeOf(""):
		return storage.TStr, false, true
	case reflect.TypeOf(false):
		return storage.TBool, false, true
	case reflect.TypeOf([]byte(nil)):
		return storage.TBlob, false, true
	case reflect.TypeOf([]int64(nil)):
		return storage.TInt, true, true
	case reflect.TypeOf([]float64(nil)):
		return storage.TFloat, true, true
	case reflect.TypeOf([]string(nil)):
		return storage.TStr, true, true
	case reflect.TypeOf([]bool(nil)):
		return storage.TBool, true, true
	case reflect.TypeOf([][]byte(nil)):
		return storage.TBlob, true, true
	}
	return 0, false, false
}

// Symbol is the name a LANGUAGE GO definition binds: its body, or the
// function's own name when the body is empty.
func Symbol(def *storage.FuncDef) string {
	if s := strings.TrimSpace(def.Body); s != "" {
		return s
	}
	return def.Name
}

// Compile binds the function the definition carries (def.Native) and
// checks it against the declared signature. The callable calls that
// function for as long as it lives: a re-registration installs a new
// catalog entry, which compiles to a new callable.
func (*Runtime) Compile(def *storage.FuncDef) (udfrt.Callable, error) {
	fn, symbol := reflect.ValueOf(def.Native), Symbol(def)
	if fn.Kind() != reflect.Func {
		return nil, core.Errorf(core.KindName,
			"UDF %s: no Go function registered as %q (register it with RegisterGoUDF)", def.Name, symbol)
	}
	t := fn.Type()
	if t.NumIn() != len(def.Params) {
		return nil, core.Errorf(core.KindType,
			"UDF %s: Go function %q takes %d argument(s), declaration has %d",
			def.Name, symbol, t.NumIn(), len(def.Params))
	}
	c := &callable{def: def, fn: fn, elementwise: def.Elementwise}
	for i, p := range def.Params {
		st, isSlice, ok := sqlType(t.In(i))
		if !ok || st != p.Type {
			return nil, core.Errorf(core.KindType,
				"UDF %s: parameter %s is declared %s but the Go function takes %s",
				def.Name, p.Name, p.Type, t.In(i))
		}
		c.sliceIn = append(c.sliceIn, isSlice)
	}
	nOut := t.NumOut()
	if nOut > 0 && t.Out(nOut-1) == errType {
		c.hasErr = true
		nOut--
	}
	if nOut != len(def.Returns) {
		return nil, core.Errorf(core.KindType,
			"UDF %s: Go function %q returns %d column(s), declaration has %d",
			def.Name, symbol, nOut, len(def.Returns))
	}
	for i, r := range def.Returns {
		st, isSlice, ok := sqlType(t.Out(i))
		if !ok || st != r.Type {
			return nil, core.Errorf(core.KindType,
				"UDF %s: result %s is declared %s but the Go function returns %s",
				def.Name, r.Name, r.Type, t.Out(i))
		}
		c.sliceOut = append(c.sliceOut, isSlice)
	}
	return c, nil
}

// ParallelSafe implements udfrt.ParallelSafe: only functions registered
// element-wise opt in — they have declared row-i-depends-only-on-row-i
// purity, goroutine safety and that they keep no argument slice, so the
// engine may invoke the callable concurrently over disjoint morsels of a
// batch and refuses an answer that is not one value per row. Plain
// RegisterGoUDF keeps whole-batch semantics (batch-dependent
// implementations like prefix sums stay correct, and no concurrency is
// imposed).
func (c *callable) ParallelSafe() bool { return c.elementwise }

// callable is one compiled GO UDF: the function and its validated
// signature.
type callable struct {
	def         *storage.FuncDef
	fn          reflect.Value
	elementwise bool
	sliceIn     []bool
	sliceOut    []bool
	hasErr      bool
}

// Call implements udfrt.Callable: bind columns to typed arguments, call the
// function (panics become errors so a buggy UDF cannot take the server
// down), convert typed results back to columns.
func (c *callable) Call(_ *udfrt.Env, in *udfrt.Batch) (out *udfrt.Batch, err error) {
	args := make([]reflect.Value, len(in.Cols))
	for i, col := range in.Cols {
		a, err := c.bindArg(i, col, in.Columnar(i), in.Rows)
		if err != nil {
			return nil, err
		}
		args[i] = a
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, core.Errorf(core.KindRuntime, "UDF %s failed: panic: %v", c.def.Name, r)
		}
	}()
	rets := c.fn.Call(args)
	if c.hasErr {
		if e, _ := rets[len(rets)-1].Interface().(error); e != nil {
			return nil, udfrt.WrapErr(c.def.Name, e)
		}
		rets = rets[:len(rets)-1]
	}
	out = &udfrt.Batch{}
	for i, r := range c.def.Returns {
		col := colFromValue(r.Name, r.Type, rets[i], c.sliceOut[i])
		out.Cols = append(out.Cols, col)
		if col.Len() > out.Rows {
			out.Rows = col.Len()
		}
	}
	return out, nil
}

// bindArg produces the reflect argument for column i: the column's vector
// for slice parameters (length-1 broadcast to rows), its first value for
// scalar parameters. A multi-row columnar argument refuses to bind to a
// scalar parameter — truncating to row 0 would silently drop data.
func (c *callable) bindArg(i int, col *storage.Column, columnar bool, rows int) (reflect.Value, error) {
	if !c.sliceIn[i] {
		if col.Len() == 0 {
			return reflect.Value{}, core.Errorf(core.KindConstraint,
				"UDF %s: argument %d is empty", c.def.Name, i+1)
		}
		if columnar && col.Len() > 1 {
			return reflect.Value{}, core.Errorf(core.KindType,
				"UDF %s: argument %d is a %d-row column but the Go function takes a scalar — declare a slice parameter to receive whole columns",
				c.def.Name, i+1, col.Len())
		}
		return reflect.ValueOf(col.Vector()).Index(0), nil
	}
	if col.Len() == 1 && rows != 1 {
		col = col.BroadcastTo(rows)
	}
	if col.Len() != rows {
		return reflect.Value{}, core.Errorf(core.KindConstraint,
			"UDF %s: argument %d has %d rows, batch has %d", c.def.Name, i+1, col.Len(), rows)
	}
	// the column's backing vector, not a copy of it
	return reflect.ValueOf(col.Vector()), nil
}

// colFromValue wraps a typed result in a column, aliasing result slices
// without copying.
func colFromValue(name string, typ storage.Type, v reflect.Value, isSlice bool) *storage.Column {
	if isSlice {
		return storage.ColumnOver(name, v.Interface())
	}
	col := storage.NewColumn(name, typ)
	// Compile matched the Go type to typ, so there is nothing to coerce
	_ = col.AppendValue(v.Interface())
	return col
}

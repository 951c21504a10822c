// Package gort is the native GO UDF runtime: embedders register typed Go
// functions in a process-wide table and expose them as UDFs with CREATE
// FUNCTION ... LANGUAGE GO (or DB.RegisterGoUDF, which also writes the
// catalog entry). Calls bind argument columns to the function's slice
// parameters by reflection — the fast path hands the engine's column
// vectors to the function directly, with zero interpreter boxing.
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
	"sync"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/udfrt"
)

// Name is the LANGUAGE keyword this runtime serves.
const Name = "GO"

func init() { udfrt.Register(New()) }

// Runtime is the GO runtime singleton.
type Runtime struct{}

// New returns the GO runtime.
func New() *Runtime { return &Runtime{} }

// Name implements udfrt.Runtime.
func (*Runtime) Name() string { return Name }

// ---- the process-wide function table ----

// regEntry is one registered function plus its declared execution
// contract.
type regEntry struct {
	fn reflect.Value
	// elementwise declares that row i of the result depends only on row
	// i of the arguments and that the function is safe to call from
	// multiple goroutines — the engine may then split a batch into
	// morsels and run them concurrently.
	elementwise bool
}

var (
	mu    sync.RWMutex
	funcs = map[string]regEntry{}
)

// Register installs fn under name (case-insensitive), validating its
// signature. Re-registering a name replaces the previous function. The
// function keeps whole-batch semantics: every call receives the full
// column, so batch-dependent implementations (prefix sums, stateful
// closures) stay correct. Declare element-wise purity with
// RegisterElementwise to let the engine morsel-parallelize calls.
func Register(name string, fn any) error {
	return registerFn(name, fn, false)
}

// RegisterElementwise installs fn like Register and additionally
// declares it element-wise and concurrency-safe: row i of the result
// depends only on row i of the arguments, and the function may be
// invoked from several goroutines at once over disjoint morsels of one
// batch. Aggregate-style results (one value for the whole batch) are
// still detected at call time and re-run as a single whole-batch call.
func RegisterElementwise(name string, fn any) error {
	return registerFn(name, fn, true)
}

func registerFn(name string, fn any, elementwise bool) error {
	v := reflect.ValueOf(fn)
	if !v.IsValid() || v.Kind() != reflect.Func {
		return core.Errorf(core.KindType, "Go UDF %s: not a function (%T)", name, fn)
	}
	if _, _, err := signatureSchemas(v.Type()); err != nil {
		return core.Wrapf(core.KindType, err, "Go UDF %s: %v", name, err)
	}
	mu.Lock()
	funcs[strings.ToLower(name)] = regEntry{fn: v, elementwise: elementwise}
	mu.Unlock()
	return nil
}

// Unregister removes a registered function (tests).
func Unregister(name string) {
	mu.Lock()
	delete(funcs, strings.ToLower(name))
	mu.Unlock()
}

func lookup(name string) (reflect.Value, bool) {
	e, ok := lookupEntry(name)
	return e.fn, ok
}

func lookupEntry(name string) (regEntry, bool) {
	mu.RLock()
	e, ok := funcs[strings.ToLower(name)]
	mu.RUnlock()
	return e, ok
}

// InferDef builds the catalog definition a registered function implements:
// parameter and result SQL types from the reflected signature, IsTable when
// the function returns more than one column. Parameter names are arg1..argN
// and result names col1..colN ("result" for scalars) — SQL-side CREATE
// FUNCTION can declare friendlier ones.
func InferDef(name string, fn any) (*storage.FuncDef, error) {
	v := reflect.ValueOf(fn)
	if !v.IsValid() || v.Kind() != reflect.Func {
		return nil, core.Errorf(core.KindType, "Go UDF %s: not a function (%T)", name, fn)
	}
	params, returns, err := signatureSchemas(v.Type())
	if err != nil {
		return nil, core.Wrapf(core.KindType, err, "Go UDF %s: %v", name, err)
	}
	return &storage.FuncDef{
		Name:     name,
		Params:   params,
		Returns:  returns,
		Language: Name,
		IsTable:  len(returns) > 1,
	}, nil
}

// signatureSchemas validates a function type and derives parameter/result
// schemas with placeholder names.
func signatureSchemas(t reflect.Type) (params, returns storage.Schema, err error) {
	if t.IsVariadic() {
		return nil, nil, fmt.Errorf("variadic functions are not supported")
	}
	for i := 0; i < t.NumIn(); i++ {
		st, _, err := sqlType(t.In(i))
		if err != nil {
			return nil, nil, fmt.Errorf("parameter %d: %w", i+1, err)
		}
		params = append(params, storage.ColumnDef{Name: fmt.Sprintf("arg%d", i+1), Type: st})
	}
	nOut := t.NumOut()
	if nOut > 0 && t.Out(nOut-1) == errType {
		nOut--
	}
	if nOut == 0 {
		return nil, nil, fmt.Errorf("must return at least one value")
	}
	for i := 0; i < nOut; i++ {
		st, _, err := sqlType(t.Out(i))
		if err != nil {
			return nil, nil, fmt.Errorf("result %d: %w", i+1, err)
		}
		name := fmt.Sprintf("col%d", i+1)
		if nOut == 1 {
			name = "result"
		}
		returns = append(returns, storage.ColumnDef{Name: name, Type: st})
	}
	return params, returns, nil
}

var errType = reflect.TypeOf((*error)(nil)).Elem()

// sqlType maps a Go parameter/result type to its storage type, reporting
// whether it is the whole-column (slice) form.
func sqlType(t reflect.Type) (storage.Type, bool, error) {
	switch t {
	case reflect.TypeOf(int64(0)):
		return storage.TInt, false, nil
	case reflect.TypeOf(float64(0)):
		return storage.TFloat, false, nil
	case reflect.TypeOf(""):
		return storage.TStr, false, nil
	case reflect.TypeOf(false):
		return storage.TBool, false, nil
	case reflect.TypeOf([]byte(nil)):
		return storage.TBlob, false, nil
	case reflect.TypeOf([]int64(nil)):
		return storage.TInt, true, nil
	case reflect.TypeOf([]float64(nil)):
		return storage.TFloat, true, nil
	case reflect.TypeOf([]string(nil)):
		return storage.TStr, true, nil
	case reflect.TypeOf([]bool(nil)):
		return storage.TBool, true, nil
	case reflect.TypeOf([][]byte(nil)):
		return storage.TBlob, true, nil
	}
	return 0, false, fmt.Errorf("unsupported Go UDF type %s", t)
}

// Compile implements udfrt.Runtime: resolve the registered function (the
// body names the Go symbol; an empty body defaults to the function's own
// name) and check it against the declared signature. The callable re-reads
// the table at call time, so re-registering a symbol with the same
// signature swaps the implementation without re-creating the function.
func (*Runtime) Compile(def *storage.FuncDef) (udfrt.Callable, error) {
	symbol := strings.TrimSpace(def.Body)
	if symbol == "" {
		symbol = def.Name
	}
	fn, ok := lookup(symbol)
	if !ok {
		return nil, core.Errorf(core.KindName,
			"UDF %s: no Go function registered as %q (register it with RegisterGoUDF before CREATE FUNCTION ... LANGUAGE GO)",
			def.Name, symbol)
	}
	t := fn.Type()
	if t.NumIn() != len(def.Params) {
		return nil, core.Errorf(core.KindType,
			"UDF %s: Go function %q takes %d argument(s), declaration has %d",
			def.Name, symbol, t.NumIn(), len(def.Params))
	}
	c := &callable{def: def, symbol: symbol, typ: t}
	for i, p := range def.Params {
		st, isSlice, err := sqlType(t.In(i))
		if err != nil || st != p.Type {
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
		st, isSlice, err := sqlType(t.Out(i))
		if err != nil || st != r.Type {
			return nil, core.Errorf(core.KindType,
				"UDF %s: result %s is declared %s but the Go function returns %s",
				def.Name, r.Name, r.Type, t.Out(i))
		}
		c.sliceOut = append(c.sliceOut, isSlice)
	}
	return c, nil
}

// ParallelSafe implements udfrt.ParallelSafe: only functions installed
// with RegisterElementwise opt in — they have declared row-i-depends-
// only-on-row-i purity and goroutine safety, so the engine may invoke
// the callable concurrently over disjoint morsels of a batch. Plain
// Register keeps whole-batch semantics (batch-dependent implementations
// like prefix sums stay correct, and no concurrency is imposed). The
// flag is read from the live table, so re-registering under a different
// contract takes effect immediately.
func (c *callable) ParallelSafe() bool {
	e, ok := lookupEntry(c.symbol)
	return ok && e.elementwise
}

// callable is one compiled GO UDF: the validated signature plus the symbol
// it resolves at every call.
type callable struct {
	def      *storage.FuncDef
	symbol   string
	typ      reflect.Type // the signature the declaration was checked against
	sliceIn  []bool
	sliceOut []bool
	hasErr   bool
}

// Call implements udfrt.Callable: bind columns to typed arguments, call the
// function (panics become errors so a buggy UDF cannot take the server
// down), convert typed results back to columns. The symbol resolves against
// the live table so a re-registered implementation takes effect
// immediately; a signature change, however, requires re-creating the
// function.
func (c *callable) Call(_ *udfrt.Env, in *udfrt.Batch) (out *udfrt.Batch, err error) {
	fn, ok := lookup(c.symbol)
	if !ok {
		return nil, core.Errorf(core.KindName,
			"UDF %s: Go function %q is no longer registered", c.def.Name, c.symbol)
	}
	if fn.Type() != c.typ {
		return nil, core.Errorf(core.KindType,
			"UDF %s: Go function %q was re-registered with a different signature; re-create the function",
			c.def.Name, c.symbol)
	}
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
	rets := fn.Call(args)
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

// Package conformance is the shared behavior suite every UDF runtime must
// pass: empty and NULL inputs, length-1 broadcast, the scalar calling
// convention for constant arguments, multi-column table returns, and error
// propagation with the UDF's name attached. Runtime packages implement the
// small catalog of conformance functions in their own language and hand
// Run their definitions; the suite compiles them with engine.CompileUDF and
// drives them through the same udfrt.Callable contract the engine uses.
package conformance

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/udfrt"
)

// The conformance function catalog. Def implementations must provide each
// one with exactly this signature (in their language):
const (
	// FnDouble: double_each(x INTEGER) RETURNS INTEGER — element-wise 2*x,
	// with NULL treated as 0 (the native runtimes see zero values).
	FnDouble = "double_each"
	// FnAddScaled: add_scaled(x INTEGER, f INTEGER) RETURNS INTEGER —
	// element-wise x+f where f arrives as a constant (scalar convention).
	FnAddScaled = "add_scaled"
	// FnFail: always_fails(x INTEGER) RETURNS INTEGER — must error on call.
	FnFail = "always_fails"
	// FnMinMax: min_max(x INTEGER) RETURNS TABLE(lo INTEGER, hi INTEGER) —
	// one row holding the extremes.
	FnMinMax = "min_max"
)

// Impl binds one runtime to its implementations of the catalog.
type Impl struct {
	// Def returns the catalog definition for one Fn* name, its Language
	// naming the runtime under test (implementation registered or embodied
	// as needed).
	Def func(t *testing.T, fn string) *storage.FuncDef
	// NewEnv builds a fresh per-statement environment; nil means a zero Env
	// per call.
	NewEnv func() *udfrt.Env
}

func (im Impl) env() *udfrt.Env {
	if im.NewEnv != nil {
		return im.NewEnv()
	}
	return &udfrt.Env{}
}

func (im Impl) compile(t *testing.T, fn string) udfrt.Callable {
	t.Helper()
	def := im.Def(t, fn)
	call, err := engine.CompileUDF(def)
	if err != nil {
		t.Fatalf("%s: CompileUDF(%s): %v", udfrt.Canonical(def.Language), fn, err)
	}
	return call
}

func intColumn(name string, vals ...int64) *storage.Column {
	col := storage.NewColumn(name, storage.TInt)
	for _, v := range vals {
		col.AppendInt(v)
	}
	return col
}

func ints(t *testing.T, col *storage.Column) []int64 {
	t.Helper()
	if col.Typ != storage.TInt {
		t.Fatalf("column %s is %s, want INTEGER", col.Name, col.Typ)
	}
	return col.Ints
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Run drives the full suite against one runtime implementation.
func Run(t *testing.T, im Impl) {
	t.Run("columnar", func(t *testing.T) {
		call := im.compile(t, FnDouble)
		in := udfrt.NewBatch([]*storage.Column{intColumn("x", 1, 2, 3)}, []bool{true})
		out, err := call.Call(im.env(), in)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Cols) != 1 || !equalInts(ints(t, out.Cols[0]), []int64{2, 4, 6}) {
			t.Fatalf("double_each([1 2 3]) = %+v", out.Cols)
		}
	})

	t.Run("empty input", func(t *testing.T) {
		call := im.compile(t, FnDouble)
		in := udfrt.NewBatch([]*storage.Column{intColumn("x")}, []bool{true})
		out, err := call.Call(im.env(), in)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Cols) != 1 || out.Cols[0].Len() != 0 {
			t.Fatalf("empty input must give an empty column, got %+v", out.Cols)
		}
	})

	t.Run("null input", func(t *testing.T) {
		call := im.compile(t, FnDouble)
		col := intColumn("x", 1)
		col.AppendNull()
		col.AppendInt(3)
		out, err := call.Call(im.env(), udfrt.NewBatch([]*storage.Column{col}, []bool{true}))
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(ints(t, out.Cols[0]), []int64{2, 0, 6}) {
			t.Fatalf("double_each([1 NULL 3]) = %v (NULL must count as 0)", out.Cols[0].Ints)
		}
	})

	t.Run("broadcast constant", func(t *testing.T) {
		call := im.compile(t, FnAddScaled)
		in := udfrt.NewBatch(
			[]*storage.Column{intColumn("x", 1, 2, 3), intColumn("f", 10)},
			[]bool{true, false})
		out, err := call.Call(im.env(), in)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(ints(t, out.Cols[0]), []int64{11, 12, 13}) {
			t.Fatalf("add_scaled([1 2 3], 10) = %v", out.Cols[0].Ints)
		}
	})

	t.Run("error carries UDF name", func(t *testing.T) {
		call := im.compile(t, FnFail)
		_, err := call.Call(im.env(), udfrt.NewBatch([]*storage.Column{intColumn("x", 1)}, []bool{true}))
		if err == nil {
			t.Fatal("always_fails must fail")
		}
		if !strings.Contains(err.Error(), FnFail) {
			t.Fatalf("error %q does not name the UDF %q", err, FnFail)
		}
	})

	t.Run("table return", func(t *testing.T) {
		call := im.compile(t, FnMinMax)
		out, err := call.Call(im.env(), udfrt.NewBatch([]*storage.Column{intColumn("x", 3, 1, 7)}, []bool{true}))
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Cols) != 2 {
			t.Fatalf("min_max returned %d columns, want 2", len(out.Cols))
		}
		if out.Cols[0].Name != "lo" || out.Cols[1].Name != "hi" {
			t.Fatalf("column names %q %q, want lo hi", out.Cols[0].Name, out.Cols[1].Name)
		}
		if !equalInts(ints(t, out.Cols[0]), []int64{1}) || !equalInts(ints(t, out.Cols[1]), []int64{7}) {
			t.Fatalf("min_max([3 1 7]) = %v %v", out.Cols[0].Ints, out.Cols[1].Ints)
		}
	})
}

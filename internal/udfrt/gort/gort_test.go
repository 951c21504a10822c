package gort

import (
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/udfrt"
)

// scalarDef declares name(a, b, ...) RETURNS DOUBLE over DOUBLE parameters,
// carrying fn as its implementation.
func scalarDef(name string, params int, fn any) *storage.FuncDef {
	def := &storage.FuncDef{
		Name:     name,
		Language: Name,
		Returns:  storage.Schema{{Name: "result", Type: storage.TFloat}},
		Native:   fn,
	}
	for i := 0; i < params; i++ {
		def.Params = append(def.Params, storage.ColumnDef{
			Name: string(rune('a' + i)), Type: storage.TFloat})
	}
	return def
}

func floatCol(name string, vals ...float64) *storage.Column {
	c := storage.NewColumn(name, storage.TFloat)
	for _, v := range vals {
		c.AppendFloat(v)
	}
	return c
}

// TestRegisterValidatesSignature: InferDef refuses a function the runtime
// cannot call, with one type error that names the UDF once.
func TestRegisterValidatesSignature(t *testing.T) {
	for _, c := range []struct {
		fn   any
		want string
	}{
		{42, "type error: Go UDF f: not a function (int)"},
		{func(x []int32) []int32 { return x }, "type error: Go UDF f: parameter 1: unsupported Go UDF type []int32"},
		{func(x []int64) {}, "type error: Go UDF f: must return at least one value"},
		{func(x []int64) []int32 { return nil }, "type error: Go UDF f: result 1: unsupported Go UDF type []int32"},
		{func(x ...[]int64) []int64 { return nil }, "type error: Go UDF f: variadic functions are not supported"},
	} {
		if _, err := InferDef("f", c.fn, false); err == nil || err.Error() != c.want {
			t.Errorf("InferDef: %v, want %s", err, c.want)
		}
	}
}

// TestElementwiseRefusesOneValueForAColumn: a function that takes a slice
// and returns a scalar answers one value for many rows, so InferDef refuses
// it as element-wise. Whole-batch it is taken, and a function of scalars
// only, or one that answers slices, is element-wise.
func TestElementwiseRefusesOneValueForAColumn(t *testing.T) {
	want := "type error: Go UDF f: takes a column but returns one value, so it is not element-wise; register it with RegisterGoUDF"
	for _, fn := range []any{
		func(x []int64) int64 { return 0 },
		func(x []float64, n int64) float64 { return 0 },
		func(x []int64) ([]int64, int64, error) { return nil, 0, nil },
	} {
		if _, err := InferDef("f", fn, true); err == nil || err.Error() != want {
			t.Errorf("InferDef(%T): %v, want %s", fn, err, want)
		}
		if _, err := InferDef("f", fn, false); err != nil {
			t.Errorf("InferDef(%T) whole-batch: %v", fn, err)
		}
	}
	for _, fn := range []any{
		func(x int64) int64 { return x },
		func(x []int64, n int64) []int64 { return x },
	} {
		if _, err := InferDef("f", fn, true); err != nil {
			t.Errorf("InferDef(%T) element-wise: %v", fn, err)
		}
	}
}

// TestParallelSafeIsTheRegisteredContract: the callable is parallel-safe
// exactly when its definition was registered element-wise, as it stood at
// Compile.
func TestParallelSafeIsTheRegisteredContract(t *testing.T) {
	for _, elementwise := range []bool{false, true} {
		def, err := InferDef("ident", func(x []int64) []int64 { return x }, elementwise)
		if err != nil {
			t.Fatal(err)
		}
		call, err := New().Compile(def)
		if err != nil {
			t.Fatal(err)
		}
		def.Elementwise = !elementwise
		if got := call.(udfrt.ParallelSafe).ParallelSafe(); got != elementwise {
			t.Errorf("registered element-wise=%v: ParallelSafe() = %v", elementwise, got)
		}
	}
}

func TestInferDef(t *testing.T) {
	fn := func(a []float64, n int64) ([]float64, []int64) { return a, nil }
	def, err := InferDef("pairup", fn, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Params) != 2 || def.Params[0].Type != storage.TFloat || def.Params[1].Type != storage.TInt {
		t.Fatalf("params: %+v", def.Params)
	}
	if !def.IsTable || len(def.Returns) != 2 {
		t.Fatalf("returns: %+v table=%v", def.Returns, def.IsTable)
	}
	if def.Language != Name {
		t.Fatalf("language %q", def.Language)
	}
	if def.Native == nil || def.Elementwise {
		t.Fatalf("native %v element-wise %v: want the function, whole-batch", def.Native, def.Elementwise)
	}
}

func TestCompileChecksDeclaration(t *testing.T) {
	halve := func(x []float64) []float64 { return x }
	rt := New()
	// arity mismatch
	if _, err := rt.Compile(scalarDef("halve", 2, halve)); err == nil {
		t.Fatal("arity mismatch must fail compile")
	}
	// type mismatch
	def := scalarDef("halve", 1, halve)
	def.Params[0].Type = storage.TStr
	if _, err := rt.Compile(def); err == nil {
		t.Fatal("type mismatch must fail compile")
	}
	// a definition without a function names the symbol it binds
	def = scalarDef("unbound", 1, nil)
	def.Body = "  no_such_symbol\n"
	if _, err := rt.Compile(def); err == nil || err.Error() !=
		`name error: UDF unbound: no Go function registered as "no_such_symbol" (register it with RegisterGoUDF)` {
		t.Fatalf("unbound definition: %v", err)
	}
}

func TestCallZeroCopyAndBroadcast(t *testing.T) {
	var seen []float64
	sumpair := func(a, b []float64) []float64 {
		seen = a
		out := make([]float64, len(a))
		for i := range a {
			out[i] = a[i] + b[i]
		}
		return out
	}
	rt := New()
	call, err := rt.Compile(scalarDef("sumpair", 2, sumpair))
	if err != nil {
		t.Fatal(err)
	}
	a := floatCol("a", 1, 2, 3)
	b := floatCol("b", 10) // length-1: broadcasts to the batch's rows
	out, err := call.Call(&udfrt.Env{}, udfrt.NewBatch([]*storage.Column{a, b}, []bool{true, true}))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Cols[0].Flts; len(got) != 3 || got[0] != 11 || got[2] != 13 {
		t.Fatalf("sumpair = %v", got)
	}
	// the fast path hands the column's backing vector to the function
	if len(seen) != 3 || &seen[0] != &a.Flts[0] {
		t.Fatal("columnar argument was copied; want the column's own vector")
	}
}

func TestCallScalarParam(t *testing.T) {
	scale := func(x []float64, f float64) []float64 {
		out := make([]float64, len(x))
		for i := range x {
			out[i] = x[i] * f
		}
		return out
	}
	rt := New()
	def := scalarDef("scale", 2, scale)
	call, err := rt.Compile(def)
	if err != nil {
		t.Fatal(err)
	}
	out, err := call.Call(&udfrt.Env{}, udfrt.NewBatch(
		[]*storage.Column{floatCol("x", 1, 2), floatCol("f", 2.5)}, []bool{true, false}))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Cols[0].Flts; got[0] != 2.5 || got[1] != 5 {
		t.Fatalf("scale = %v", got)
	}
}

func TestCallPanicBecomesError(t *testing.T) {
	boomer := func(x []float64) []float64 {
		panic("kaboom")
	}
	rt := New()
	call, err := rt.Compile(scalarDef("boomer", 1, boomer))
	if err != nil {
		t.Fatal(err)
	}
	_, err = call.Call(&udfrt.Env{}, udfrt.NewBatch([]*storage.Column{floatCol("x", 1)}, []bool{true}))
	if err == nil || !strings.Contains(err.Error(), "boomer") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic must surface as a named error, got %v", err)
	}
}

func TestColumnarArgRefusesScalarParam(t *testing.T) {
	// a multi-row column must not silently truncate to its first value
	rt := New()
	call, err := rt.Compile(scalarDef("sq1", 1, func(x float64) float64 { return x * x }))
	if err != nil {
		t.Fatal(err)
	}
	_, err = call.Call(&udfrt.Env{}, udfrt.NewBatch(
		[]*storage.Column{floatCol("x", 1, 2, 3)}, []bool{true}))
	if err == nil || !strings.Contains(err.Error(), "slice parameter") {
		t.Fatalf("multi-row column into scalar param must fail, got %v", err)
	}
	// a single-row columnar argument still binds (exact semantics)
	out, err := call.Call(&udfrt.Env{}, udfrt.NewBatch(
		[]*storage.Column{floatCol("x", 3)}, []bool{true}))
	if err != nil || out.Cols[0].Flts[0] != 9 {
		t.Fatalf("%v %v", out, err)
	}
}

func TestCallArgLengthMismatch(t *testing.T) {
	rt := New()
	call, err := rt.Compile(scalarDef("sum2", 2, func(a, b []float64) []float64 { return a }))
	if err != nil {
		t.Fatal(err)
	}
	_, err = call.Call(&udfrt.Env{}, udfrt.NewBatch(
		[]*storage.Column{floatCol("a", 1, 2, 3), floatCol("b", 1, 2)}, []bool{true, true}))
	if err == nil {
		t.Fatal("ragged argument lengths must fail")
	}
}

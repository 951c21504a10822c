package conformance

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/storage"
	"repro/internal/udfrt"
	"repro/internal/udfrt/gort"
	"repro/internal/udfrt/pyrt"
)

// intScalarDef builds the shared scalar definitions of the catalog.
func intScalarDef(fn, language string, params ...string) *storage.FuncDef {
	def := &storage.FuncDef{
		Name:     fn,
		Language: language,
		Returns:  storage.Schema{{Name: "result", Type: storage.TInt}},
	}
	for _, p := range params {
		def.Params = append(def.Params, storage.ColumnDef{Name: p, Type: storage.TInt})
	}
	return def
}

func minMaxDef(language string) *storage.FuncDef {
	return &storage.FuncDef{
		Name:     FnMinMax,
		Language: language,
		Params:   storage.Schema{{Name: "x", Type: storage.TInt}},
		Returns: storage.Schema{
			{Name: "lo", Type: storage.TInt},
			{Name: "hi", Type: storage.TInt},
		},
		IsTable: true,
	}
}

// pythonBodies is the catalog written as stored PYTHON bodies.
var pythonBodies = map[string]string{
	FnDouble: `out = []
for v in x:
    if v == None:
        v = 0
    out.append(v * 2)
return out`,
	FnAddScaled: `out = []
for v in x:
    out.append(v + f)
return out`,
	FnFail: `raise "boom"`,
	FnMinMax: `lo = x[0]
hi = x[0]
for v in x:
    if v < lo:
        lo = v
    if v > hi:
        hi = v
return {'lo': lo, 'hi': hi}`,
}

// TestPythonConformance runs the suite against the interpreter runtime.
func TestPythonConformance(t *testing.T) {
	Run(t, Impl{
		Runtime: pyrt.New(),
		Def: func(t *testing.T, fn string) *storage.FuncDef {
			body, ok := pythonBodies[fn]
			if !ok {
				t.Fatalf("no PYTHON body for %s", fn)
			}
			var def *storage.FuncDef
			switch fn {
			case FnMinMax:
				def = minMaxDef(pyrt.Name)
			case FnAddScaled:
				def = intScalarDef(fn, pyrt.Name, "x", "f")
			default:
				def = intScalarDef(fn, pyrt.Name, "x")
			}
			def.Body = body
			return def
		},
	})
}

// TestGoConformance runs the same suite against the native runtime with the
// catalog registered as typed Go functions.
func TestGoConformance(t *testing.T) {
	impls := map[string]any{
		FnDouble: func(x []int64) []int64 {
			out := make([]int64, len(x))
			for i, v := range x {
				out[i] = v * 2
			}
			return out
		},
		FnAddScaled: func(x []int64, f int64) []int64 {
			out := make([]int64, len(x))
			for i, v := range x {
				out[i] = v + f
			}
			return out
		},
		FnFail: func(x []int64) ([]int64, error) {
			return nil, errors.New("boom")
		},
		FnMinMax: func(x []int64) (int64, int64) {
			lo, hi := x[0], x[0]
			for _, v := range x {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			return lo, hi
		},
	}
	// Register under test-scoped symbols so the process-wide table cannot
	// collide with other tests; the def's Body carries the symbol.
	for fn, impl := range impls {
		symbol := fmt.Sprintf("conformance_%s", fn)
		if err := gort.Register(symbol, impl); err != nil {
			t.Fatal(err)
		}
		defer gort.Unregister(symbol)
	}
	Run(t, Impl{
		Runtime: gort.New(),
		Def: func(t *testing.T, fn string) *storage.FuncDef {
			var def *storage.FuncDef
			switch fn {
			case FnMinMax:
				def = minMaxDef(gort.Name)
			case FnAddScaled:
				def = intScalarDef(fn, gort.Name, "x", "f")
			default:
				def = intScalarDef(fn, gort.Name, "x")
			}
			def.Body = fmt.Sprintf("conformance_%s", fn)
			return def
		},
		NewEnv: func() *udfrt.Env { return &udfrt.Env{} },
	})
}

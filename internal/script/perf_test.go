package script

import (
	"strings"
	"sync"
	"testing"
)

// The two UDF bodies the repo benchmark replays, wrapped in a def the way
// every UDF the engine runs is (transform.WrapFunction).
const (
	meanDeviationSrc = `def mean_deviation(column):
    mean = 0
    for i in range(0, len(column)):
        mean += column[i]
    mean = mean / len(column)
    distance = 0
    for i in range(0, len(column)):
        distance += abs(column[i] - mean)
    deviation = distance / len(column)
    return deviation
`
	squareVecSrc = `def square_vec(x):
    out = []
    for v in x:
        out.append(v * v)
    return out
`
)

// boundUDF defines src's function in a fresh interpreter.
func boundUDF(tb testing.TB, name, src string) (*Interp, Value) {
	tb.Helper()
	mod, err := Parse(name, src)
	if err != nil {
		tb.Fatal(err)
	}
	in := NewInterp()
	env, err := in.Run(mod)
	if err != nil {
		tb.Fatal(err)
	}
	fn, ok := env.Get(name)
	if !ok {
		tb.Fatalf("%s did not define itself", name)
	}
	return in, fn
}

// intColumns is a column of n ints above 255 — so boxing one allocates, as
// it does for real data (the Go runtime interns smaller ones) — in both
// representations: a list of boxed cells and a list wrapping the vector.
func intColumns(n int) map[string]Value {
	ints := make([]int64, n)
	items := make([]Value, n)
	for i := range items {
		ints[i] = int64(1000 + i%9973)
		items[i] = IntVal(ints[i])
	}
	return map[string]Value{"boxed": NewList(items...), "column-backed": NewIntList(ints, nil)}
}

// TestOneModuleManyInterpreters runs one parsed Module on four goroutines at
// once, each with its own Interp and half of them traced, as pyrt shares one
// across connections: what Parse returns is only read while it runs. It
// guards that under -race.
func TestOneModuleManyInterpreters(t *testing.T) {
	mod, err := Parse("shared", meanDeviationSrc+squareVecSrc+traceScript)
	if err != nil {
		t.Fatal(err)
	}
	ints := make([]int64, 500)
	for i := range ints {
		ints[i] = int64(i * 7 % 113)
	}
	run := func(hooked bool) (string, error) {
		in := NewInterp()
		if hooked {
			in.Trace = func(*Interp, TraceEvent) error { return nil }
		}
		env, err := in.Run(mod)
		if err != nil {
			return "", err
		}
		out := []string{getVarRepr(env, "evens"), getVarRepr(env, "r")}
		for _, name := range []string{"mean_deviation", "square_vec"} {
			fn, _ := env.Get(name)
			v, err := in.Call(fn, []Value{NewIntList(ints, nil)})
			if err != nil {
				return "", err
			}
			out = append(out, v.Repr())
		}
		return strings.Join(out, " "), nil
	}
	want, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 10 {
				if got, err := run(g%2 == 1); err != nil || got != want {
					t.Errorf("goroutine %d: %v\n got %.80s\nwant %.80s", g, err, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func getVarRepr(env *Env, name string) string {
	if v, ok := env.Get(name); ok {
		return v.Repr()
	}
	return name + " unbound"
}

// TestInterpAllocsPerRow is the interpreter's perf gate: steps and
// allocations of one call of the two benchmark UDFs. Both are properties of
// the interpreter, not timings, so they hold on any machine. The step count
// is exact: statements per call plus, per row, the loop bodies and the
// loops' own step. Nothing allocates per row: the loop index, column[i],
// the arithmetic and abs() stay in the numeric lane, and out grows as a
// []int64 whose doublings amortize to under 0.01.
func TestInterpAllocsPerRow(t *testing.T) {
	const rows = 10_000
	for repr, col := range intColumns(rows) {
		for _, tc := range []struct {
			name, src string
			steps     int64 // per call
		}{
			{"mean_deviation", meanDeviationSrc, 7 + 4*rows},
			{"square_vec", squareVecSrc, 3 + 2*rows},
		} {
			in, fn := boundUDF(t, tc.name, tc.src)
			args := []Value{col}
			call := func() {
				if _, err := in.Call(fn, args); err != nil {
					t.Fatal(err)
				}
			}
			before := in.Steps()
			call()
			if got := in.Steps() - before; got != tc.steps {
				t.Errorf("%s, %s: %d steps per call, want %d", tc.name, repr, got, tc.steps)
			}
			perRow := testing.AllocsPerRun(5, call) / rows
			if perRow > 0.01 {
				t.Errorf("%s, %s: %.3f allocs/row, want <= 0.01", tc.name, repr, perRow)
			}
			t.Logf("%s, %s: %.4f allocs/row", tc.name, repr, perRow)
		}
	}
}

// BenchmarkUDFBody times one call of each benchmark UDF over a 50k-row
// column wrapped the way the engine hands one to a PYTHON UDF, in the int
// and in the float lane, and reports the interpreter's cost per row.
func BenchmarkUDFBody(b *testing.B) {
	const rows = 50_000
	ints, flts := make([]int64, rows), make([]float64, rows)
	for i := range ints {
		ints[i] = int64(1000 + i%9973)
		flts[i] = float64(ints[i]) / 7
	}
	for _, udf := range []struct{ name, src string }{
		{"mean_deviation", meanDeviationSrc},
		{"square_vec", squareVecSrc},
	} {
		for _, col := range []struct {
			lane string
			list func() *ListVal
		}{
			{"int", func() *ListVal { return NewIntList(ints, nil) }},
			{"float", func() *ListVal { return NewFloatList(flts, nil) }},
		} {
			b.Run(udf.name+"/"+col.lane, func(b *testing.B) {
				in, fn := boundUDF(b, udf.name, udf.src)
				args := []Value{col.list()}
				b.ReportAllocs()
				for b.Loop() {
					if _, err := in.Call(fn, args); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			})
		}
	}
}

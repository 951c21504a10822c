package script

import "testing"

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

// intColumn is a column of n ints above 255, so boxing one allocates as it
// does for real data (the Go runtime interns smaller ones).
func intColumn(n int) Value {
	items := make([]Value, n)
	for i := range items {
		items[i] = IntVal(1000 + i%9973)
	}
	return NewList(items...)
}

// TestInterpAllocsPerRow is the interpreter's perf gate: steps and
// allocations of one call of the two benchmark UDFs. Both are properties of
// the interpreter, not timings, so they hold on any machine. The step count
// is exact: statements per call plus, per row, the loop bodies and the
// loops' own step. What still allocates per row is boxing — the loop index
// and the int and float results.
func TestInterpAllocsPerRow(t *testing.T) {
	const rows = 10_000
	col := intColumn(rows)
	for _, tc := range []struct {
		name, src    string
		steps        int64   // per call
		allocsPerRow float64 // upper bound
	}{
		{"mean_deviation", meanDeviationSrc, 7 + 4*rows, 6},
		{"square_vec", squareVecSrc, 3 + 2*rows, 1.01}, // out's growth amortizes to under 0.01
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
			t.Errorf("%s: %d steps per call, want %d", tc.name, got, tc.steps)
		}
		perRow := testing.AllocsPerRun(5, call) / rows
		if perRow > tc.allocsPerRow {
			t.Errorf("%s: %.3f allocs/row, want <= %v", tc.name, perRow, tc.allocsPerRow)
		}
		t.Logf("%s: %.3f allocs/row", tc.name, perRow)
	}
}

package script

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// laneSeeds each define udf(col, k), which laneOutcome calls over every
// column of laneColumns with k an index into it. Between them they reach
// every lane form and every reason one falls back: NULL cells, boxed and
// bool cells, negative and out-of-range indices, a zero divisor, an unbound
// local, a rebound abs, int64 overflow, a list that leaves its lane, ints
// that one float cannot tell apart, int() of an infinity or NaN.
var laneSeeds = []string{
	`def udf(col, k):
    mean = 0
    for i in range(0, len(col)):
        mean += col[i]
    mean = mean / len(col)
    d = 0
    for i in range(0, len(col)):
        d += abs(col[i] - mean)
    return d / len(col)
`,
	`def udf(col, k):
    x = col[k]
    y = col[k] * 2 + col[-1]
    z = col[0] - k
    if col[k] < 1:
        print("small", col[k])
    return [x, y, z, -col[k], float(col[k]), int(col[k] / 3), abs(col[-4])]
`,
	`abs = lambda x: 7
def udf(col, k):
    s = 0
    for v in col:
        s += abs(v)
    return s
`,
	`def udf(col, k):
    global abs
    a = abs(col[k])
    abs = float
    b = abs(col[k])
    return [a, b, int(col[1])]
`,
	`def udf(col, k):
    big = 9223372036854775807
    x = big + col[0]
    y = big * 3
    z = -(-9223372036854775807 - 1)
    w = abs(-9223372036854775807 - 1)
    x += big
    return [x, y, z, w, int(1e300), float(big)]
`,
	`def udf(col, k):
    i = 0
    acc = 0.0
    while i != 4:
        if col[i] >= k:
            acc += col[i] / (col[i] - k)
        elif col[i] == 0.5:
            acc -= 1
        i += 1
    n = float('nan')
    return [acc, n == n, n != n, n < 1, 1 <= 1.0, -0.0, abs(-0.0)]
`,
	`def udf(col, k):
    out = []
    for v in col:
        out.append(v * v - k)
    out.append(col[k] < col[0])
    out.append(-col[0])
    out.append(col[1] / 0)
    return out
`,
	`total = 0
def udf(col, k):
    global total
    for i in range(0, len(col)):
        total += col[i]
        col[i] *= 2
        col[i] //= 3
    x = 5
    x /= 2
    x %= 2
    x -= col[k]
    return [total, x, col]
`,
	`def udf(col, k):
    s = 0
    col[0] = 0.5
    s += col[0] + col[1]
    col.append('x')
    s += col[1]
    s += col[4]
    return s
`,
	`def udf(col, k):
    if k > 100:
        z = 1
    z += col[0]
    return z
`,
	`def udf(col, k):
    m = 2
    def g(i):
        return col[i] * m
    t = 0
    for i in range(0, 2):
        t += g(i)
    t = t - m * col[k]
    return t
`,
	`def udf(col, k):
    a = col[0]
    b = col[1]
    e = a == b
    g = col[0] > col[1]
    if col[1] >= col[0]:
        e = 1
    s = sorted([a, b, col[2]])
    return [e, g, a != b, b <= a, s, max(a, b) - b]
`,
	`def udf(col, k):
    x = col[k] * 1e308 * 1e308
    if k > 0:
        return int(x)
    return int(x - x)
`,
}

// laneColumns are the columns each call of a seed's udf gets, in this order,
// one interpreter for all of them: int and float lanes, the same with NULLs,
// boxed numbers, bool cells beside a None, and ints around 2^53.
func laneColumns() []*ListVal {
	return []*ListVal{
		NewIntList([]int64{3, -7, 1 << 40, 0}, nil),
		NewFloatList([]float64{0.5, -2.25, 1e300, 0}, nil),
		NewIntList([]int64{3, -7, 5, 9}, []bool{false, true, false, false}),
		NewFloatList([]float64{0.5, -2.25, 4, 8}, []bool{false, false, true, false}),
		NewList(IntVal(3), FloatVal(0.5), IntVal(-1), FloatVal(2)),
		NewList(BoolVal(true), BoolVal(false), IntVal(2), None),
		NewIntList([]int64{1<<53 + 1, 1 << 53, 1<<53 - 1, -1<<53 - 1}, nil),
	}
}

// FuzzLaneFormAgrees runs each program twice, compiled with lane forms and
// without, and requires the same outcome: every call's result type and Repr
// or error text, kind and line, then the globals, what was printed and the
// step count. A lane form that answers where its closure would raise, or
// answers another value, shows here. Steps are bounded as in TestFuzzSeedsRun.
func FuzzLaneFormAgrees(f *testing.F) {
	for _, seed := range laneSeeds {
		for _, k := range []int64{1, -1, 9, -9} {
			f.Add(seed, k)
		}
	}
	f.Fuzz(func(t *testing.T, src string, k int64) {
		laned, generic := laneOutcome(compiler{}, src, k), laneOutcome(compiler{generic: true}, src, k)
		if laned != generic {
			t.Fatalf("%q with k=%d runs differently with lane forms:\n laned   %s\n generic %s", src, k, laned, generic)
		}
	})
}

// laneOutcome parses src with c, runs it in a fresh interpreter, calls udf
// over each of laneColumns if it defined one, and renders what happened.
func laneOutcome(c compiler, src string, k int64) string {
	mod, err := c.parse("lanes.py", src)
	if err != nil {
		return "parse: " + err.Error()
	}
	var out, sb strings.Builder
	in := NewInterp()
	in.Stdout = &out
	in.MaxSteps = 5000
	env, err := in.Run(mod)
	sb.WriteString("module: " + callOutcome(nil, err))
	if fn, ok := env.vars["udf"]; ok && err == nil {
		for _, col := range laneColumns() {
			v, err := in.Call(fn, []Value{col, IntVal(k)})
			sb.WriteString(" | " + callOutcome(v, err))
		}
	}
	for _, name := range slices.Sorted(maps.Keys(env.vars)) {
		fmt.Fprintf(&sb, " | %s=%s", name, env.vars[name].Repr())
	}
	fmt.Fprintf(&sb, " | stdout %q | steps %d", out.String(), in.Steps())
	return sb.String()
}

func callOutcome(v Value, err error) string {
	if err == nil {
		if v == nil {
			return "ok"
		}
		return v.TypeName() + " " + v.Repr()
	}
	line := -1
	if re := (*RuntimeError)(nil); errors.As(err, &re) {
		line = re.Line
	}
	return fmt.Sprintf("error %q kind %v line %d", err.Error(), core.KindOf(err), line)
}

// TestLaneFormsShareOneModule runs one parsed Module on four goroutines at
// once over int-lane, float-lane and boxed columns, each goroutine with its
// own Interp: lane forms are closures Parse built and every goroutine reads.
// It guards that under -race.
func TestLaneFormsShareOneModule(t *testing.T) {
	mod, err := Parse("shared", meanDeviationSrc+squareVecSrc+laneSeeds[1])
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	ints, flts, boxed := make([]int64, n), make([]float64, n), make([]Value, n)
	for i := range ints {
		ints[i] = int64(i * 7 % 113)
		flts[i] = float64(ints[i]) / 4
		boxed[i] = IntVal(ints[i])
		if i%2 == 1 {
			boxed[i] = FloatVal(flts[i])
		}
	}
	columns := []func() *ListVal{
		func() *ListVal { return NewIntList(ints, nil) },
		func() *ListVal { return NewFloatList(flts, nil) },
		func() *ListVal { return NewList(slices.Clone(boxed)...) },
	}
	run := func(col func() *ListVal) (string, error) {
		in := NewInterp()
		env, err := in.Run(mod)
		if err != nil {
			return "", err
		}
		var out []string
		for _, call := range []struct {
			name string
			args []Value
		}{{"mean_deviation", []Value{col()}}, {"square_vec", []Value{col()}}, {"udf", []Value{col(), IntVal(5)}}} {
			fn, _ := env.Get(call.name)
			v, err := in.Call(fn, call.args)
			if err != nil {
				return "", err
			}
			out = append(out, v.Repr())
		}
		return strings.Join(out, " "), nil
	}
	want := make([]string, len(columns))
	for i, col := range columns {
		if want[i], err = run(col); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 12 {
				c := (g + r) % len(columns)
				if got, err := run(columns[c]); err != nil || got != want[c] {
					t.Errorf("goroutine %d, column %d: %v\n got %.80s\nwant %.80s", g, c, err, got, want[c])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestIntsCompareExactly: two ints compare as int64, not as the floats
// they round to, where 2^53 + 1 and 2^53 are one float. The comparisons
// run as lane forms (an assignment's value, an if condition), as closures
// (inside a list, and everything under compiler{generic: true}), and in
// sort, min, max and list compares.
func TestIntsCompareExactly(t *testing.T) {
	const src = `def udf(col, k):
    a = col[0]
    b = col[1]
    eq = a == b
    gt = col[0] > col[1]
    lt = col[2] < col[1]
    ne = 9007199254740993 != 9007199254740992
    if a <= b:
        eq = True
    closures = [a == b, a != b, a > b, a >= b, a < b, a <= b, b > col[2]]
    s = sorted([a, b, col[2]])
    col.sort()
    return [eq, gt, lt, ne, closures, s[0] < s[1], s[1] < s[2], col[2] - col[0], [a, b] == [b, a], [b] < [a], max(a, b) - min(a, b)]
`
	const want = `[False, True, True, True, [False, True, True, True, False, False, True], True, True, 2, False, True, 1]`
	for _, c := range []compiler{{}, {generic: true}} {
		mod, err := c.parse("exact.py", src)
		if err != nil {
			t.Fatal(err)
		}
		in := NewInterp()
		env, err := in.Run(mod)
		if err != nil {
			t.Fatal(err)
		}
		col := NewIntList([]int64{1<<53 + 1, 1 << 53, 1<<53 - 1}, nil)
		got, err := in.Call(env.vars["udf"], []Value{col, IntVal(0)})
		if err != nil {
			t.Fatalf("generic=%v: %v", c.generic, err)
		}
		if got.Repr() != want {
			t.Errorf("generic=%v: %s, want %s", c.generic, got.Repr(), want)
		}
	}
}

// TestIntOfNaNOrInfinityRaises: int() of NaN or an infinity raises what
// CPython raises, from the closure and from the lane form, which answers
// not-ok and hands the call back.
func TestIntOfNaNOrInfinityRaises(t *testing.T) {
	for _, tc := range []struct{ expr, want string }{
		{"float('nan')", "ValueError: cannot convert float NaN to integer"},
		{"col[0] * 1e308 * 1e308", "OverflowError: cannot convert float infinity to integer"},
		{"-col[0] * 1e308 * 1e308", "OverflowError: cannot convert float infinity to integer"},
		{"col[0] * 1e308 * 1e308 - col[0] * 1e308 * 1e308", "ValueError: cannot convert float NaN to integer"},
	} {
		for _, c := range []compiler{{}, {generic: true}} {
			mod, err := c.parse("int.py", "def udf(col):\n    x = int("+tc.expr+")\n    return x\n")
			if err != nil {
				t.Fatal(err)
			}
			in := NewInterp()
			env, err := in.Run(mod)
			if err != nil {
				t.Fatal(err)
			}
			_, err = in.Call(env.vars["udf"], []Value{NewFloatList([]float64{2}, nil)})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("generic=%v int(%s): %v, want %q", c.generic, tc.expr, err, tc.want)
			}
		}
	}
}

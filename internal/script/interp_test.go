package script

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// runSrc executes source and returns the module globals.
func runSrc(t *testing.T, src string) *Env {
	t.Helper()
	mod, err := Parse("test", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	in := NewInterp()
	env, err := in.Run(mod)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return env
}

// runSrcOut executes source and returns captured print output.
func runSrcOut(t *testing.T, src string) string {
	t.Helper()
	mod, err := Parse("test", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var sb strings.Builder
	in := NewInterp()
	in.Stdout = &sb
	if _, err := in.Run(mod); err != nil {
		t.Fatalf("run: %v", err)
	}
	return sb.String()
}

// runSrcErr executes source and returns the error (must be non-nil).
func runSrcErr(t *testing.T, src string) error {
	t.Helper()
	mod, err := Parse("test", src)
	if err != nil {
		return err
	}
	in := NewInterp()
	_, err = in.Run(mod)
	if err == nil {
		t.Fatalf("expected error, got none")
	}
	return err
}

func getVar(t *testing.T, env *Env, name string) Value {
	t.Helper()
	v, ok := env.Get(name)
	if !ok {
		t.Fatalf("variable %q not defined", name)
	}
	return v
}

func wantInt(t *testing.T, env *Env, name string, want int64) {
	t.Helper()
	v := getVar(t, env, name)
	iv, ok := v.(IntVal)
	if !ok {
		t.Fatalf("%s: want int, got %s (%s)", name, v.TypeName(), v.Repr())
	}
	if int64(iv) != want {
		t.Fatalf("%s = %d, want %d", name, int64(iv), want)
	}
}

func wantFloat(t *testing.T, env *Env, name string, want float64) {
	t.Helper()
	v := getVar(t, env, name)
	fv, ok := v.(FloatVal)
	if !ok {
		t.Fatalf("%s: want float, got %s (%s)", name, v.TypeName(), v.Repr())
	}
	if float64(fv) != want {
		t.Fatalf("%s = %v, want %v", name, float64(fv), want)
	}
}

func wantStr(t *testing.T, env *Env, name string, want string) {
	t.Helper()
	v := getVar(t, env, name)
	sv, ok := v.(StrVal)
	if !ok {
		t.Fatalf("%s: want str, got %s", name, v.TypeName())
	}
	if string(sv) != want {
		t.Fatalf("%s = %q, want %q", name, string(sv), want)
	}
}

func TestArithmetic(t *testing.T) {
	env := runSrc(t, `
a = 2 + 3 * 4
b = (2 + 3) * 4
c = 7 // 2
d = -7 // 2
e = 7 % 3
f = -7 % 3
g = 2 ** 10
h = 10 / 4
`)
	wantInt(t, env, "a", 14)
	wantInt(t, env, "b", 20)
	wantInt(t, env, "c", 3)
	wantInt(t, env, "d", -4) // Python floor division
	wantInt(t, env, "e", 1)
	wantInt(t, env, "f", 2) // Python modulo sign
	wantInt(t, env, "g", 1024)
	wantFloat(t, env, "h", 2.5)
}

func TestFloatMixing(t *testing.T) {
	env := runSrc(t, `
a = 1 + 2.5
b = 10.0 // 3
c = 2 ** -1
`)
	wantFloat(t, env, "a", 3.5)
	wantFloat(t, env, "b", 3.0)
	wantFloat(t, env, "c", 0.5)
}

func TestStringOps(t *testing.T) {
	env := runSrc(t, `
a = "foo" + "bar"
b = "ab" * 3
c = "a,b,c".split(",")
d = "-".join(["x", "y"])
e = "  hi  ".strip()
f = "hello"[1]
g = "hello"[1:3]
h = "hello %d world %s" % (42, "yes")
i = len("hello")
j = "ell" in "hello"
`)
	wantStr(t, env, "a", "foobar")
	wantStr(t, env, "b", "ababab")
	if got := getVar(t, env, "c").Repr(); got != "['a', 'b', 'c']" {
		t.Fatalf("split: %s", got)
	}
	wantStr(t, env, "d", "x-y")
	wantStr(t, env, "e", "hi")
	wantStr(t, env, "f", "e")
	wantStr(t, env, "g", "el")
	wantStr(t, env, "h", "hello 42 world yes")
	wantInt(t, env, "i", 5)
	if got := getVar(t, env, "j"); !Truthy(got) {
		t.Fatal("'ell' in 'hello' should be True")
	}
}

func TestListOps(t *testing.T) {
	env := runSrc(t, `
l = [3, 1, 2]
l.append(4)
l.sort()
first = l[0]
last = l[-1]
sub = l[1:3]
total = sum(l)
n = len(l)
l2 = l + [9]
popped = l2.pop()
has = 3 in l
idx = l.index(3)
`)
	wantInt(t, env, "first", 1)
	wantInt(t, env, "last", 4)
	wantInt(t, env, "total", 10)
	wantInt(t, env, "n", 4)
	wantInt(t, env, "popped", 9)
	wantInt(t, env, "idx", 2)
	if got := getVar(t, env, "sub").Repr(); got != "[2, 3]" {
		t.Fatalf("slice: %s", got)
	}
}

func TestDictOps(t *testing.T) {
	env := runSrc(t, `
d = {"a": 1, "b": 2}
d["c"] = 3
x = d["a"]
y = d.get("zz", -1)
ks = d.keys()
n = len(d)
has = "b" in d
del d["a"]
n2 = len(d)
`)
	wantInt(t, env, "x", 1)
	wantInt(t, env, "y", -1)
	wantInt(t, env, "n", 3)
	wantInt(t, env, "n2", 2)
	if got := getVar(t, env, "ks").Repr(); got != "['a', 'b', 'c']" {
		t.Fatalf("keys order: %s", got)
	}
}

func TestControlFlow(t *testing.T) {
	env := runSrc(t, `
total = 0
for i in range(0, 10):
    if i % 2 == 0:
        continue
    if i == 9:
        break
    total += i

j = 0
while j < 5:
    j += 1

grade = ""
score = 85
if score >= 90:
    grade = "A"
elif score >= 80:
    grade = "B"
else:
    grade = "C"
`)
	wantInt(t, env, "total", 1+3+5+7)
	wantInt(t, env, "j", 5)
	wantStr(t, env, "grade", "B")
}

func TestFunctions(t *testing.T) {
	env := runSrc(t, `
def add(a, b=10):
    return a + b

def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

def swap(a, b):
    return b, a

x = add(1, 2)
y = add(5)
z = add(b=1, a=2)
f8 = fib(8)
(p, q) = swap(1, 2)
sq = lambda v: v * v
s = sq(7)
`)
	wantInt(t, env, "x", 3)
	wantInt(t, env, "y", 15)
	wantInt(t, env, "z", 3)
	wantInt(t, env, "f8", 21)
	wantInt(t, env, "p", 2)
	wantInt(t, env, "q", 1)
	wantInt(t, env, "s", 49)
}

func TestClosuresAndGlobals(t *testing.T) {
	env := runSrc(t, `
counter = 0

def bump():
    global counter
    counter += 1

def make_adder(n):
    def adder(x):
        return x + n
    return adder

bump()
bump()
add5 = make_adder(5)
r = add5(3)
`)
	wantInt(t, env, "counter", 2)
	wantInt(t, env, "r", 8)
}

func TestTupleUnpackInFor(t *testing.T) {
	env := runSrc(t, `
pairs = [(1, "a"), (2, "b")]
total = 0
names = ""
for n, s in pairs:
    total += n
    names += s
`)
	wantInt(t, env, "total", 3)
	wantStr(t, env, "names", "ab")
}

func TestBuiltins(t *testing.T) {
	env := runSrc(t, `
a = min(3, 1, 2)
b = max([5, 9, 2])
c = abs(-4)
d = int("42")
e = float("2.5")
f = str(123)
g = sorted([3, 1, 2])
h = sorted([3, 1, 2], reverse=True)
i = list(range(3))
j = round(2.5)
k = round(3.14159, 2)
m = list(enumerate(["x", "y"]))
z = list(zip([1, 2], ["a", "b"]))
`)
	wantInt(t, env, "a", 1)
	wantInt(t, env, "b", 9)
	wantInt(t, env, "c", 4)
	wantInt(t, env, "d", 42)
	wantFloat(t, env, "e", 2.5)
	wantStr(t, env, "f", "123")
	if got := getVar(t, env, "g").Repr(); got != "[1, 2, 3]" {
		t.Fatalf("sorted: %s", got)
	}
	if got := getVar(t, env, "h").Repr(); got != "[3, 2, 1]" {
		t.Fatalf("sorted reverse: %s", got)
	}
	if got := getVar(t, env, "i").Repr(); got != "[0, 1, 2]" {
		t.Fatalf("list(range): %s", got)
	}
	wantInt(t, env, "j", 2) // banker's rounding
	wantFloat(t, env, "k", 3.14)
	if got := getVar(t, env, "m").Repr(); got != "[(0, 'x'), (1, 'y')]" {
		t.Fatalf("enumerate: %s", got)
	}
	if got := getVar(t, env, "z").Repr(); got != "[(1, 'a'), (2, 'b')]" {
		t.Fatalf("zip: %s", got)
	}
}

func TestPrint(t *testing.T) {
	out := runSrcOut(t, `
print("hello", 42)
print("a", "b", sep="-", end="!")
`)
	want := "hello 42\na-b!"
	if out != want {
		t.Fatalf("print output %q, want %q", out, want)
	}
}

func TestTernaryAndBoolOps(t *testing.T) {
	env := runSrc(t, `
a = 1 if True else 2
b = 1 if False else 2
c = 0 or "fallback"
d = 1 and 2
e = not 0
f = 1 < 2 < 3
g = 1 < 2 > 5
`)
	wantInt(t, env, "a", 1)
	wantInt(t, env, "b", 2)
	wantStr(t, env, "c", "fallback")
	wantInt(t, env, "d", 2)
	if !Truthy(getVar(t, env, "e")) {
		t.Fatal("not 0 should be True")
	}
	if !Truthy(getVar(t, env, "f")) {
		t.Fatal("1 < 2 < 3 should be True")
	}
	if Truthy(getVar(t, env, "g")) {
		t.Fatal("1 < 2 > 5 should be False")
	}
}

func TestErrorsCarryTraceback(t *testing.T) {
	err := runSrcErr(t, `
def inner():
    return unknown_name

def outer():
    return inner()

outer()
`)
	re, ok := err.(*RuntimeError)
	if !ok {
		t.Fatalf("want *RuntimeError, got %T: %v", err, err)
	}
	if !strings.Contains(re.Msg, "unknown_name") {
		t.Fatalf("message: %s", re.Msg)
	}
	joined := strings.Join(re.Stack, "|")
	if !strings.Contains(joined, "inner") || !strings.Contains(joined, "outer") {
		t.Fatalf("stack should mention inner and outer: %v", re.Stack)
	}
	if core.KindOf(err) != core.KindRuntime {
		t.Fatalf("kind = %v, want runtime", core.KindOf(err))
	}
}

func TestDivisionByZero(t *testing.T) {
	const negPow = "ZeroDivisionError: 0.0 cannot be raised to a negative power"
	for _, tc := range []struct {
		src, want string
		line      int
	}{
		{"x = 1 / 0", "division by zero", 1},
		{"x = 0 ** -1", negPow, 1},
		{"z = 0\nx = z ** -1", negPow, 2},
		{"x = 0.0 ** -1", negPow, 1},
		{"x = 0 ** -0.5", negPow, 1},
		// Constant folding leaves a failing operation for run time, so the
		// literal form fails on its own line, inside its function.
		{"def f():\n    y = 1\n    return 0 ** -1\nf()", negPow, 3},
	} {
		err := runSrcErr(t, tc.src)
		re, ok := err.(*RuntimeError)
		if !ok || re.Msg != tc.want || re.Line != tc.line {
			t.Errorf("%q: err %v, want %q on line %d", tc.src, err, tc.want, tc.line)
		}
	}
	err := runSrcErr(t, "def f():\n    y = 1\n    return 0 ** -1\nf()")
	if stack := strings.Join(err.(*RuntimeError).Stack, "|"); stack != "<module> (test:4)|f (test:3)" {
		t.Fatalf("stack %q", stack)
	}
	// 64-bit ints wrap, as SQL INTEGER does.
	wantInt(t, runSrc(t, "x = 2 ** 64"), "x", 0)
	wantFloat(t, runSrc(t, "x = 2 ** -1"), "x", 0.5)
}

func TestIndexOutOfRange(t *testing.T) {
	err := runSrcErr(t, `x = [1, 2][5]`)
	if !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err: %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	mod, err := Parse("test", "while True:\n    pass\n")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp()
	in.MaxSteps = 1000
	if _, err := in.Run(mod); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("want step limit error, got %v", err)
	}
}

// A comprehension counts through a range like a for statement does: the step
// budget ends it before the range — too large to build — is materialized.
func TestStepLimitInsideComprehensionOverRange(t *testing.T) {
	mod, err := Parse("test", "r = [i for i in range(0, 100000000000)]\n")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp()
	in.MaxSteps = 1000
	if _, err := in.Run(mod); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("want step limit error, got %v", err)
	}
}

// A comprehension whose filter rejects every item still counts one step per
// item: the step limit ends it, and the interrupt is polled every 1024 steps.
func TestFilteredComprehensionCountsSteps(t *testing.T) {
	mod, err := Parse("test", "r = [i for i in range(0, 100000000000) if i < 0]\n")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp()
	in.MaxSteps = 1000
	if _, err := in.Run(mod); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("want step limit error, got %v", err)
	}
	stop := core.Errorf(core.KindCancelled, "stop")
	polls := 0
	in = NewInterp()
	in.Interrupt = func() error {
		if polls++; polls == 3 {
			return stop
		}
		return nil
	}
	if _, err := in.Run(mod); err != stop {
		t.Fatalf("want the interrupt's error, got %v", err)
	}
	if in.Steps() != 3*1024 {
		t.Fatalf("interrupted after %d steps, want %d", in.Steps(), 3*1024)
	}
}

func TestRecursionLimit(t *testing.T) {
	err := runSrcErr(t, `
def loop():
    return loop()
loop()
`)
	if !strings.Contains(err.Error(), "recursion") {
		t.Fatalf("err: %v", err)
	}
}

func TestTryExceptFinally(t *testing.T) {
	env := runSrc(t, `
log = []
try:
    x = 1 / 0
except Exception as e:
    log.append("caught")
finally:
    log.append("finally")

msg = ""
try:
    raise Exception("boom")
except Exception as e:
    msg = e
`)
	if got := getVar(t, env, "log").Repr(); got != "['caught', 'finally']" {
		t.Fatalf("log: %s", got)
	}
	wantStr(t, env, "msg", "boom")
}

func TestAssert(t *testing.T) {
	err := runSrcErr(t, `assert 1 == 2, "broken math"`)
	if !strings.Contains(err.Error(), "broken math") {
		t.Fatalf("err: %v", err)
	}
	runSrc(t, `assert 1 == 1`)
}

func TestMathAndNumpyModules(t *testing.T) {
	env := runSrc(t, `
import math
import numpy

a = math.sqrt(16)
b = math.floor(2.9)
c = numpy.sum([1, 2, 3])
d = numpy.mean([2, 4, 6])
e = numpy.sum([True, False, True, True])
`)
	wantFloat(t, env, "a", 4)
	wantInt(t, env, "b", 2)
	wantInt(t, env, "c", 6)
	wantFloat(t, env, "d", 4)
	wantInt(t, env, "e", 3)
}

func TestPickleModuleRoundTrip(t *testing.T) {
	env := runSrc(t, `
import pickle

original = {"name": "x", "vals": [1, 2.5, None, True], "nested": {"k": (1, 2)}}
blob = pickle.dumps(original)
restored = pickle.loads(blob)
same = restored == original
`)
	if !Truthy(getVar(t, env, "same")) {
		t.Fatal("pickle round trip should preserve equality")
	}
}

func TestOpenAndOSModule(t *testing.T) {
	fs := core.NewMemFS(map[string]string{
		"data/one.csv": "1\n2\n3\n",
		"data/two.csv": "4\n5\n",
	})
	mod, err := Parse("test", `
import os

files = os.listdir("data")
total = 0
for name in files:
    f = open("data/" + name)
    for line in f:
        total += int(line)
`)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp()
	in.FS = fs
	env, err := in.Run(mod)
	if err != nil {
		t.Fatal(err)
	}
	wantInt(t, env, "total", 15)
	if got := getVar(t, env, "files").Repr(); got != "['one.csv', 'two.csv']" {
		t.Fatalf("listdir: %s", got)
	}
}

func TestFileWrite(t *testing.T) {
	fs := core.NewMemFS(nil)
	mod, err := Parse("test", `
f = open("out.txt", "w")
f.write("hello")
f.write(" world")
f.close()
`)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp()
	in.FS = fs
	if _, err := in.Run(mod); err != nil {
		t.Fatal(err)
	}
	b, err := fs.ReadFile("out.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "hello world" {
		t.Fatalf("file content %q", b)
	}
}

// TestPaperListing4 runs the paper's buggy mean_deviation body (Listing 4)
// and verifies the bug reproduces: the non-absolute difference makes the
// result (near) zero instead of the true mean absolute deviation.
func TestPaperListing4(t *testing.T) {
	env := runSrc(t, `
def mean_deviation(column):
    mean = 0
    for i in range(0, len(column)):
        mean += column[i]
    mean = mean / len(column)
    distance = 0
    for i in range(0, len(column)):
        distance += column[i] - mean
    deviation = distance / len(column)
    return deviation

def mean_deviation_fixed(column):
    mean = 0
    for i in range(0, len(column)):
        mean += column[i]
    mean = mean / len(column)
    distance = 0
    for i in range(0, len(column)):
        distance += abs(column[i] - mean)
    deviation = distance / len(column)
    return deviation

data = [1, 2, 3, 4, 100]
buggy = mean_deviation(data)
fixed = mean_deviation_fixed(data)
`)
	buggy := float64(getVar(t, env, "buggy").(FloatVal))
	fixed := float64(getVar(t, env, "fixed").(FloatVal))
	if buggy > 1e-9 || buggy < -1e-9 {
		t.Fatalf("buggy version should be ~0, got %v", buggy)
	}
	if fixed != 31.2 {
		t.Fatalf("fixed mean deviation = %v, want 31.2", fixed)
	}
}

// TestPaperListing5 runs the buggy data loader (Listing 5): range(0, n-1)
// silently skips the last file.
func TestPaperListing5(t *testing.T) {
	fs := core.NewMemFS(map[string]string{
		"csvs/a.csv": "1\n2\n",
		"csvs/b.csv": "3\n",
		"csvs/c.csv": "100\n",
	})
	src := `
import os

def loadNumbers(path):
    files = os.listdir(path)
    result = []
    for i in range(0, len(files) - 1):
        file = open(path + "/" + files[i], "r")
        for line in file:
            result.append(int(line))
    return result

nums = loadNumbers("csvs")
n = len(nums)
`
	mod, err := Parse("test", src)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp()
	in.FS = fs
	env, err := in.Run(mod)
	if err != nil {
		t.Fatal(err)
	}
	// The bug: c.csv (the value 100) is skipped.
	wantInt(t, env, "n", 3)
	if got := getVar(t, env, "nums").Repr(); got != "[1, 2, 3]" {
		t.Fatalf("nums: %s", got)
	}
}

func TestCallWrongArity(t *testing.T) {
	err := runSrcErr(t, `
def f(a, b):
    return a
f(1, 2, 3)
`)
	if !strings.Contains(err.Error(), "takes 2 arguments but 3 were given") {
		t.Fatalf("err: %v", err)
	}
}

func TestUnknownModule(t *testing.T) {
	err := runSrcErr(t, `import nonexistent_module_xyz`)
	if !strings.Contains(err.Error(), "ModuleNotFoundError") {
		t.Fatalf("err: %v", err)
	}
}

func TestCallFromGo(t *testing.T) {
	mod, err := Parse("udf", "def double(x):\n    return x * 2\n")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp()
	env, err := in.Run(mod)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := env.Get("double")
	out, err := in.Call(fn, []Value{IntVal(21)})
	if err != nil {
		t.Fatal(err)
	}
	if out.(IntVal) != 42 {
		t.Fatalf("double(21) = %v", out)
	}
}

func TestSemicolonsAndInlineBlocks(t *testing.T) {
	// The paper's listings end statements with semicolons (SQL habit).
	env := runSrc(t, `
x = 1;
if x == 1: y = 2
`)
	wantInt(t, env, "y", 2)
}

func TestTripleQuotedStrings(t *testing.T) {
	env := runSrc(t, `
q = """SELECT data,
labels FROM testingset"""
n = len(q.split("\n"))
`)
	wantInt(t, env, "n", 2)
}

func TestAttrAssignment(t *testing.T) {
	env := runSrc(t, `
import math
d = {}
d["pi"] = math.pi
ok = d["pi"] > 3.14
`)
	if !Truthy(getVar(t, env, "ok")) {
		t.Fatal("math.pi should exceed 3.14")
	}
}

func TestTraceEvents(t *testing.T) {
	mod, err := Parse("traced", `
def f(x):
    return x + 1

a = f(1)
b = f(2)
`)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp()
	var calls, returns, lines int
	in.Trace = func(_ *Interp, ev TraceEvent) error {
		switch ev.Kind {
		case TraceCall:
			calls++
		case TraceReturn:
			returns++
		case TraceLine:
			lines++
		}
		return nil
	}
	if _, err := in.Run(mod); err != nil {
		t.Fatal(err)
	}
	if calls != 2 || returns != 2 {
		t.Fatalf("calls=%d returns=%d, want 2/2", calls, returns)
	}
	if lines < 5 {
		t.Fatalf("lines=%d, want >=5", lines)
	}
}

func TestTraceAbort(t *testing.T) {
	mod, err := Parse("abort", "x = 1\ny = 2\nz = 3\n")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp()
	count := 0
	in.Trace = func(_ *Interp, ev TraceEvent) error {
		count++
		if count == 2 {
			return core.Errorf(core.KindRuntime, "stopped by debugger")
		}
		return nil
	}
	_, err = in.Run(mod)
	if err == nil || !strings.Contains(err.Error(), "stopped by debugger") {
		t.Fatalf("err: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"def f(:\n    pass\n",
		"if x\n    pass\n",
		"x = (1 + \n",
		"for in range(3):\n    pass\n",
		"x ===== 3",
		"1 = x",
	}
	for _, src := range cases {
		if _, err := Parse("bad", src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestIndentationErrors(t *testing.T) {
	_, err := Parse("bad", "if True:\n    x = 1\n   y = 2\n")
	if err == nil {
		t.Fatal("mismatched dedent should fail")
	}
}

func TestStrMethods(t *testing.T) {
	env := runSrc(t, `
a = "Hello".upper()
b = "Hello".lower()
c = "hello world".replace("world", "there")
d = "hello".startswith("he")
e = "hello".endswith("lo")
f = "a.b.c".count(".")
g = "hello".find("ll")
h = "{} + {} = {}".format(1, 2, 3)
`)
	wantStr(t, env, "a", "HELLO")
	wantStr(t, env, "b", "hello")
	wantStr(t, env, "c", "hello there")
	if !Truthy(getVar(t, env, "d")) || !Truthy(getVar(t, env, "e")) {
		t.Fatal("startswith/endswith failed")
	}
	wantInt(t, env, "f", 2)
	wantInt(t, env, "g", 2)
	wantStr(t, env, "h", "1 + 2 = 3")
}

func TestNegativeIndexing(t *testing.T) {
	env := runSrc(t, `
l = [1, 2, 3]
a = l[-1]
b = l[-3]
s = "hello"[-1]
t = (7, 8)[-2]
`)
	wantInt(t, env, "a", 3)
	wantInt(t, env, "b", 1)
	wantStr(t, env, "s", "o")
	wantInt(t, env, "t", 7)
}

func TestRangeVariants(t *testing.T) {
	env := runSrc(t, `
a = list(range(5))
b = list(range(2, 5))
c = list(range(10, 0, -3))
d = len(range(1000000))
e = 999999 in range(1000000)
f = 5 in range(0, 10, 2)
`)
	if got := getVar(t, env, "a").Repr(); got != "[0, 1, 2, 3, 4]" {
		t.Fatalf("a: %s", got)
	}
	if got := getVar(t, env, "b").Repr(); got != "[2, 3, 4]" {
		t.Fatalf("b: %s", got)
	}
	if got := getVar(t, env, "c").Repr(); got != "[10, 7, 4, 1]" {
		t.Fatalf("c: %s", got)
	}
	wantInt(t, env, "d", 1000000)
	if !Truthy(getVar(t, env, "e")) {
		t.Fatal("999999 in range(1000000)")
	}
	if Truthy(getVar(t, env, "f")) {
		t.Fatal("5 not in range(0,10,2)")
	}
}

package script

import (
	"strings"
	"testing"
)

// The resolver's scoping edges. Each case is a program whose module-level
// `r` records what the scoping rule decided.
func TestResolveScoping(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"global write from a nested function", `
n = 0
def outer():
    def bump():
        global n
        n = n + 1
    bump()
    bump()
outer()
r = n
`, "2"},
		{"assignment without global stays local", `
n = 5
def f():
    n = 6
    return n
r = [f(), n]
`, "[6, 5]"},
		{"closure sees the enclosing function rebind a captured local", `
def outer():
    x = 1
    def get():
        return x
    a = get()
    x = 2
    return [a, get()]
r = outer()
`, "[1, 2]"},
		{"lambda reads its defining frame after that frame returned", `
def adder(k):
    return lambda v: v + k
r = [adder(1)(10), adder(2)(10)]
`, "[11, 12]"},
		{"three levels: depth-2 free variable", `
def a():
    x = 'a'
    def b():
        def c():
            return x
        return c()
    return b()
r = a()
`, "'a'"},
		{"comprehension target leaks into the enclosing function", `
def f():
    sq = [i * i for i in range(0, 4)]
    return [sq, i]
r = f()
`, "[[0, 1, 4, 9], 3]"},
		{"augmented assignment reads its target before the right-hand side rebinds it", `
def f():
    x = 1
    x += [x for x in [10]][0]
    return x
r = f()
`, "11"},
		{"comprehension at module level binds a global", `
sq = [i for i in range(0, 3)]
r = i
`, "2"},
		{"except-as binds a local", `
def f():
    try:
        1 / 0
    except Exception as e:
        return e
r = f()
`, "'division by zero'"},
		{"import and def bind locals", `
def f():
    import math
    def g():
        return math.floor(2.5)
    return g()
r = f()
`, "2"},
		{"default argument is evaluated in the defining scope", `
k = 10
def outer():
    k = 20
    def f(v=k):
        return v
    return f()
def g(v=k):
    k = 30
    return v
r = [outer(), g()]
`, "[20, 10]"},
		{"module-level rebinding of a builtin reaches resolved functions", `
def size(x):
    return len(x)
a = size([1, 2, 3])
def len(x):
    return 99
r = [a, size([1, 2, 3])]
`, "[3, 99]"},
		{"a local named like a builtin shadows it only locally", `
def f(len):
    return len
r = [f(7), len([1, 2])]
`, "[7, 2]"},
		{"global declared after the binding still wins", `
def f():
    n = 1
    global n
    return n
f()
r = n
`, "1"},
		{"a parameter declared global stays a parameter", `
p = 'module'
def f(p):
    global p
    return p
r = [f('arg'), p]
`, "['arg', 'module']"},
		{"for target and tuple unpacking are local", `
i = 'outer'
def f(pairs):
    t = 0
    for i, j in pairs:
        t += i * j
    return t
r = [f([(1, 2), (3, 4)]), i]
`, "[14, 'outer']"},
		{"constant folding keeps Python's arithmetic", `
r = [7 // 2, -7 // 2, 7 % -3, 2 ** 10, 2 ** -1, 1 / 4, -3 + 1, not 0, True + 1, 1 < 2 < 3]
`, "[3, -4, -2, 1024, 0.5, 0.25, -2, True, 2, True]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := getVar(t, runSrc(t, tc.src), "r").Repr(); got != tc.want {
				t.Fatalf("r = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestResolveErrors pins the error text where resolution decides that a
// name is local: this is the one place PyLite now differs from its old
// behaviour, which silently read a same-named global.
func TestResolveErrors(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"read before bind", `
x = 'global'
def f():
    y = x
    x = 1
    return y
f()
`, "local variable 'x' referenced before assignment"},
		{"augmented assignment of an unbound local", `
n = 0
def f():
    n += 1
f()
`, "local variable 'n' referenced before assignment"},
		{"captured before the enclosing function binds it", `
def outer():
    def get():
        return x
    get()
    x = 1
outer()
`, "name 'x' is not defined"},
		{"del then read", `
def f():
    x = 1
    del x
    return x
f()
`, "local variable 'x' referenced before assignment"},
		{"del of an unbound local", `
def f():
    if False:
        x = 1
    del x
f()
`, "name 'x' is not defined"},
		{"del then read at module level", "x = 1\ndel x\ny = x\n", "name 'x' is not defined"},
		{"a folded expression that fails is left to run time", "\n\nx = 1 / 0\n", "division by zero"},
		{"recursion is cut at maxCallDepth", `
def down(n):
    return down(n + 1)
down(0)
`, "maximum recursion depth exceeded"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := runSrcErr(t, tc.src)
			re, ok := err.(*RuntimeError)
			if !ok || re.Msg != tc.want {
				t.Fatalf("error = %v, want %q", err, tc.want)
			}
		})
	}
	// the run-time error of an unfolded constant expression keeps its line
	if re := runSrcErr(t, "\n\nx = 1 / 0\n").(*RuntimeError); re.Line != 3 {
		t.Fatalf("line = %d, want 3", re.Line)
	}
}

// TestRecursionDepth: exactly maxCallDepth nested calls below the module
// are allowed, one more is not.
func TestRecursionDepth(t *testing.T) {
	const src = `
def down(n):
    if n == 0:
        return 0
    return 1 + down(n - 1)
`
	env := runSrc(t, src+"r = down(199)\n") // frames at depth 1..200
	wantInt(t, env, "r", 199)
	if err := runSrcErr(t, src+"r = down(200)\n"); !strings.Contains(err.Error(), "maximum recursion depth exceeded") {
		t.Fatal(err)
	}
}

// TestBuiltinRebindThroughEnv: a builtin's name bound from Go — Env.Set, or
// a second module run in the same scope with RunInEnv — is seen by functions
// that were resolved, and have already run, while it still meant the builtin.
func TestBuiltinRebindThroughEnv(t *testing.T) {
	mod, err := Parse("m", "def size(x):\n    return len(x)\n")
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp()
	env, err := in.Run(mod)
	if err != nil {
		t.Fatal(err)
	}
	size := getVar(t, env, "size")
	call := func() string {
		t.Helper()
		v, err := in.Call(size, []Value{NewList(IntVal(1), IntVal(2))})
		if err != nil {
			t.Fatal(err)
		}
		return v.Repr()
	}
	if got := call(); got != "2" {
		t.Fatalf("builtin len: %s", got)
	}
	env.Set("len", bi("len", func(*Interp, []Value, map[string]Value) (Value, error) {
		return StrVal("from Go"), nil
	}))
	if got := call(); got != "'from Go'" {
		t.Fatalf("after Env.Set: %s", got)
	}
	patch, err := Parse("patch", "def len(x):\n    return 'from a module'\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := in.RunInEnv(patch, env); err != nil {
		t.Fatal(err)
	}
	if got := call(); got != "'from a module'" {
		t.Fatalf("after RunInEnv: %s", got)
	}
	// a global injected after resolution (the engine's _conn) resolves too
	uses, err := Parse("uses", "def f():\n    return _conn\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := in.RunInEnv(uses, env); err != nil {
		t.Fatal(err)
	}
	env.Set("_conn", StrVal("handle"))
	if v, err := in.Call(getVar(t, env, "f"), nil); err != nil || v.Repr() != "'handle'" {
		t.Fatalf("injected global: %v %v", v, err)
	}
}

// TestWatchResolvesAgainstPausedFrame: watch expressions see the paused
// frame's slots, its enclosing function's, globals and builtins; Locals
// lists bound slots only; and a Watch parsed once follows the frame it is
// evaluated in.
func TestWatchResolvesAgainstPausedFrame(t *testing.T) {
	mod, err := Parse("w", `
g = 100
later = 'module'
def outer(a):
    later = None
    def inner(b):
        c = a + b
        return c
    return inner(2)
r = outer(1)
`)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := ParseWatch("a + g")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	in := NewInterp()
	in.Trace = func(in *Interp, ev TraceEvent) error {
		if ev.Kind != TraceLine {
			return nil
		}
		eval := func(src string) string {
			v, err := in.EvalInFrame(src, ev.Frame)
			if err != nil {
				return "error: " + err.(*RuntimeError).Msg
			}
			return v.Repr()
		}
		switch ev.Line {
		case 5: // in outer, before `later` is bound
			v, err := in.EvalWatch(shared, ev.Frame)
			if err != nil {
				t.Error(err)
			}
			got["shared in outer"] = v.Repr()
			got["unbound"] = eval("later")
			if _, ok := ev.Frame.Locals()["later"]; ok {
				t.Error("Locals lists an unbound slot")
			}
		case 8: // in inner, c bound
			v, err := in.EvalWatch(shared, ev.Frame)
			if err != nil {
				t.Error(err)
			}
			got["shared in inner"] = v.Repr()
			got["mixed"] = eval("[a, b, c, g, len([a, b])]")
			got["comprehension"] = eval("[b * k for k in range(0, 3)]")
			got["lambda"] = eval("(lambda q: q + c)(10)")
			locals := ev.Frame.Locals()
			if len(locals) != 2 || locals["b"].Repr() != "2" || locals["c"].Repr() != "3" {
				t.Errorf("Locals = %v", locals)
			}
		}
		return nil
	}
	if _, err := in.Run(mod); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{
		"shared in outer": "101",
		"shared in inner": "101",
		"unbound":         "'module'",
		"mixed":           "[1, 2, 3, 100, 2]",
		"comprehension":   "[0, 2, 4]",
		"lambda":          "13",
	} {
		if got[k] != want {
			t.Errorf("%s = %q, want %q", k, got[k], want)
		}
	}
}

package script

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// fuzzSeeds covers the grammar: defs, control flow, literals, slices,
// dicts, imports, exceptions — plus known-nasty edges (empty input, stray
// indentation, unterminated strings, deep nesting).
var fuzzSeeds = []string{
	"",
	"x = 1\n",
	"def f(a, b=2):\n    return a + b\nresult = f(1)\n",
	"for i in range(0, 10):\n    if i % 2 == 0:\n        continue\n    print(i)\n",
	"while True:\n    break\n",
	"d = {'a': [1, 2.5, 'x'], 'b': (1,)}\nv = d['a'][0:2]\n",
	"import os\nfiles = os.listdir('.')\n",
	"try:\n    x = 1 / 0\nexcept:\n    x = None\n",
	"class\n",
	"x = 'unterminated\n",
	"def f():\n  return ((((((1))))))\n",
	"x = [i * i for i in range(0, 3)]\n",
	"lambda\n",
	"x = -1e309\n",
	"\tindent = 1\n",
	"x = \"esc\\n\\t\\\"q\\\"\"\n",
	"a, b = 1, 2\na += b\n",
	"def g():\n    global cnt\n    cnt = cnt + 1\n",
	"x = 1 if True else 2\n",
	"s = 'a' * 3 + 'b'\nn = len(s)\n",
	// the resolver's edges: closures, late and early `global`, targets that
	// bind (for, comprehension, except-as, def, import), del, a rebound
	// builtin, read-before-bind, folding that must fail at run time
	"def outer():\n    x = 1\n    def get():\n        return x\n    x = 2\n    return get()\nr = outer()\n",
	"def f():\n    n = 1\n    global n\n    return n\nf()\n",
	"def f(p):\n    global p\n    return p\nf(1)\n",
	"def f():\n    y = x\n    x = 1\nx = 0\nf()\n",
	"def f():\n    sq = [i * i for i in range(0, 3) if i]\n    return (lambda k=i: k + i)()\nf()\n",
	"def f():\n    try:\n        1 / 0\n    except Exception as e:\n        del e\n        return e\nf()\n",
	"len = 3\ndef f(abs):\n    import math as len\n    return [len, abs]\nf(len)\ndel len\nlen([])\n",
	"x = 1 / 0 + 2 ** -1 - (not 0) * -True\n",
	"def f(a, b=a):\n    for a, (b, c) in [(1, (2, 3))]:\n        a += b\n    return a\nf(1)\n",
}

// FuzzParse asserts the lexer/parser never panic, parse deterministically,
// and preserve the module's source lines — the properties the debugger
// (breakpoints address lines of Source()) depends on.
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		mod1, err1 := Parse("fuzz.py", src)
		mod2, err2 := Parse("fuzz.py", src)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic parse: %v vs %v", err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("nondeterministic parse error: %q vs %q", err1, err2)
			}
			return
		}
		if len(mod1.Body) != len(mod2.Body) {
			t.Fatalf("nondeterministic statement count: %d vs %d", len(mod1.Body), len(mod2.Body))
		}
		// Source lines must round-trip: the debugger indexes them 1-based.
		want := strings.Split(src, "\n")
		if len(mod1.Lines) != len(want) {
			t.Fatalf("module kept %d lines of %d", len(mod1.Lines), len(want))
		}
		for i := range want {
			if mod1.Lines[i] != want[i] {
				t.Fatalf("line %d drifted: %q vs %q", i+1, mod1.Lines[i], want[i])
			}
		}
		// Every parsed statement must report a position inside the source.
		for _, st := range mod1.Body {
			if p := st.Pos(); p < 1 || p > len(want) {
				t.Fatalf("statement position %d outside 1..%d", p, len(want))
			}
		}
	})
}

// TestFuzzSeedsRun runs every seed that parses: the resolve pass hands the
// interpreter slot indices and scope depths it uses unchecked, so a
// resolver bug surfaces here as a panic. (Not a fuzz target: the
// interpreter bounds steps, not memory, so generated programs could
// exhaust it.)
func TestFuzzSeedsRun(t *testing.T) {
	for _, src := range fuzzSeeds {
		mod, err := Parse("fuzz.py", src)
		if err != nil {
			continue
		}
		in := NewInterp()
		in.MaxSteps = 5000
		_, _ = in.Run(mod) // script errors are fine
	}
}

// FuzzRunHookedAgrees runs every program that parses twice, plain and under a
// trace hook that does nothing, and requires the same globals, output, error
// text and step count both times: code that skips the hook's line event, or a
// step, on one of the two paths shows here. Steps are bounded as in
// TestFuzzSeedsRun; memory is not, as in FuzzEvalExpr.
func FuzzRunHookedAgrees(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		mod, err := Parse("fuzz.py", src)
		if err != nil {
			return
		}
		plain := runOutcome(mod, nil)
		hooked := runOutcome(mod, func(*Interp, TraceEvent) error { return nil })
		if plain != hooked {
			t.Fatalf("%q runs differently under a trace hook:\n plain  %s\n hooked %s", src, plain, hooked)
		}
	})
}

// runOutcome runs mod in a fresh interpreter under hook and renders what it
// left behind: its globals, what it printed, its error and its step count.
func runOutcome(mod *Module, hook TraceFunc) string {
	var out, sb strings.Builder
	in := NewInterp()
	in.Stdout = &out
	in.MaxSteps = 5000
	in.Trace = hook
	env, err := in.Run(mod)
	for _, name := range slices.Sorted(maps.Keys(env.vars)) {
		fmt.Fprintf(&sb, "%s=%s ", name, env.vars[name].Repr())
	}
	fmt.Fprintf(&sb, "| stdout %q | error %v | steps %d", out.String(), err, in.Steps())
	return sb.String()
}

// FuzzEvalExpr asserts the expression path the debugger uses for watch
// expressions and conditional breakpoints never panics, even on adversarial
// input typed into the condition box. The host pauses inside a nested
// function, so names resolve against slots, an enclosing function, module
// scope and builtins. Each expression is evaluated twice, with `column` a
// list of boxed cells and a list wrapping a column's vector, and must come
// to the same value or the same error both times.
func FuzzEvalExpr(f *testing.F) {
	for _, seed := range []string{
		"i > 3", "column[i] - mean", "len(x) == 0", "1 / 0", "(", "a.b.c",
		"x = 1", "'s' + 1", "d['missing']", "f(", "not (a and b) or c",
		"[k * i for k in column if k > mean]", "(lambda q=i: q + later)(1)", "later", "[x for x in x]",
		"column[0:1] + sorted(column) * 2", "[column.pop(), column.append(mean), column.sort(), column]", "max(column) in column",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		mod, err := Parse("cond.py", "x = 1\ndef outer(column, mean):\n    def inner(i):\n        return column[i] - mean\n    r = inner(0)\n    later = r\n    return later\n")
		if err != nil {
			t.Fatal(err)
		}
		// watch evaluates expr in inner's frame, paused on its first line.
		watch := func(column Value) string {
			in := NewInterp()
			in.MaxSteps = 100_000
			env, err := in.Run(mod)
			if err != nil {
				t.Fatalf("host script failed: %v", err)
			}
			outer, _ := env.Get("outer")
			var got string
			var paused bool
			in.Trace = func(in *Interp, ev TraceEvent) error {
				if paused || ev.Kind != TraceLine || ev.Frame.FuncName != "inner" {
					return nil
				}
				paused = true
				// Evaluating any expression in a paused frame must fail cleanly
				// or succeed — never panic or corrupt the interpreter.
				v, err := in.EvalInFrame(expr, ev.Frame)
				if err != nil {
					got = "error: " + err.Error()
				} else {
					got = v.TypeName() + " " + v.Repr()
				}
				return nil
			}
			// The expression may have emptied column: only a panic is a failure.
			_, _ = in.Call(outer, []Value{column, IntVal(1)})
			return got + " | column " + column.Repr()
		}
		boxed := watch(NewList(IntVal(300), IntVal(400)))
		backed := watch(NewIntList([]int64{300, 400}, nil))
		if boxed != backed {
			t.Fatalf("%q differs by representation of column:\n boxed         %s\n column-backed %s", expr, boxed, backed)
		}
	})
}

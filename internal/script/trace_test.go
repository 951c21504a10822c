package script

import (
	"fmt"
	"strings"
	"testing"
)

// traceScript has nested calls, a lambda whose default calls a function, for
// and while loops that break and continue, a try/except/finally around a
// raise in a callee, a filtered comprehension and a del.
const traceScript = `def sq(x):
    return x * x

def outer(n):
    total = 0
    for i in range(0, n):
        if i == 1:
            continue
        if i == 3:
            break
        total += sq(i)
    return total

def fail():
    raise Exception("boom")

k = 2
add = lambda a, b=sq(k): a + sq(b)
r = outer(5)
w = 0
while True:
    w += 1
    if w < 2:
        continue
    break
try:
    fail()
except Exception as e:
    msg = e
finally:
    done = add(1)
evens = [sq(j) for j in range(0, 4) if j % 2 == 0]
del k
`

// TestTraceEventSequence pins every event the trace hook sees, in order, as
// kind, function, line and call depth: what a debugger's stepping and
// breakpoints are built on.
func TestTraceEventSequence(t *testing.T) {
	mod, err := Parse("traced", traceScript)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp()
	var got []string
	in.Trace = func(_ *Interp, ev TraceEvent) error {
		got = append(got, fmt.Sprintf("%s %s:%d@%d", ev.Kind, ev.Frame.FuncName, ev.Line, ev.Frame.Depth))
		return nil
	}
	if _, err := in.Run(mod); err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(`
		line <module>:1@0 line <module>:4@0 line <module>:14@0 line <module>:17@0 line <module>:18@0
		line <module>:19@0 call outer:4@1 line outer:5@1 line outer:6@1 line outer:7@1 line outer:9@1
		line outer:11@1 call sq:1@2 line sq:2@2 return sq:2@2 line outer:7@1 line outer:8@1 line outer:7@1
		line outer:9@1 line outer:11@1 call sq:1@2 line sq:2@2 return sq:2@2 line outer:7@1 line outer:9@1
		line outer:10@1 line outer:12@1 return outer:12@1
		line <module>:20@0 line <module>:21@0 line <module>:22@0 line <module>:23@0 line <module>:24@0
		line <module>:22@0 line <module>:23@0 line <module>:25@0
		line <module>:26@0 line <module>:27@0 call fail:14@1 line fail:15@1 exception fail:15@1
		exception <module>:27@0 line <module>:29@0 line <module>:31@0
		call sq:1@2 line sq:2@2 return sq:2@2 call <lambda>:18@1 call sq:1@2 line sq:2@2 return sq:2@2
		return <lambda>:18@1
		line <module>:32@0 call sq:1@1 line sq:2@1 return sq:2@1 call sq:1@1 line sq:2@1 return sq:2@1
		line <module>:33@0`)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("trace events:\n got %s\nwant %s", strings.Join(got, " "), strings.Join(want, " "))
	}
}

// TestStepCountsPerStatementKind pins Steps() for every statement kind: each
// statement executed is one step, and every loop iteration one more — however
// it ended, by continue or a comprehension's false filter included, but not
// by break. Steps are what MaxSteps bounds and what the interrupt is polled
// by.
func TestStepCountsPerStatementKind(t *testing.T) {
	for _, tc := range []struct {
		src   string
		steps int64
	}{
		{"1\n", 1},
		{"x = 1\n", 1},
		{"x = 1\nx += 2\n", 2},
		{"pass\n", 1},
		{"if 0:\n    x = 1\nelse:\n    x = 2\n", 2},
		{"if 1:\n    x = 1\n", 2},
		{"i = 0\nwhile i < 3:\n    i += 1\n", 8},
		{"i = 0\nwhile i < 3:\n    i += 1\n    continue\n", 11},
		{"while True:\n    break\n", 2},
		{"for i in range(0, 3):\n    pass\n", 7},
		{"for i in range(0, 3):\n    continue\n", 7},
		{"for i in range(0, 3):\n    break\n", 2},
		{"for i in [4, 5, 6]:\n    pass\n", 7},
		{"for a, b in [(1, 2), (3, 4)]:\n    pass\n", 5},
		{"x = [i for i in range(0, 3)]\n", 4},
		{"x = [i for i in range(0, 3) if i > 5]\n", 4},
		{"def f():\n    pass\n", 1},
		{"def f():\n    return 1\nf()\n", 3},
		{"def f(a=1):\n    return a\nf()\n", 3},
		{"f = lambda: 1\nf()\n", 2},
		{"import math\n", 1},
		{"from math import pi, sqrt\n", 1},
		{"def f():\n    global g\n    g = 1\nf()\n", 4},
		{"x = 1\ndel x\n", 2},
		{"assert True\n", 1},
		{"try:\n    raise Exception('x')\nexcept:\n    pass\n", 3},
		{"try:\n    x = 1\nfinally:\n    y = 2\n", 3},
	} {
		mod, err := Parse("steps", tc.src)
		if err != nil {
			t.Fatal(err)
		}
		in := NewInterp()
		if _, err := in.Run(mod); err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		if in.Steps() != tc.steps {
			t.Errorf("%q: %d steps, want %d", tc.src, in.Steps(), tc.steps)
		}
	}
}

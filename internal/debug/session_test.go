package debug

import (
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/script"
)

func parseMod(t *testing.T, src string) *script.Module {
	t.Helper()
	mod, err := script.Parse("debuggee", src)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// moduleRun is a local debug run of a module's body in an interpreter of
// its own, keeping the module's globals and the run's error for Result.
type moduleRun struct {
	*Local
	globals *script.Env
	err     error
}

// newModuleRun prepares a moduleRun of mod, with globals bound in its
// module scope before it runs.
func newModuleRun(mod *script.Module, cfg Config, globals map[string]script.Value) *moduleRun {
	in := script.NewInterp()
	r := &moduleRun{globals: in.NewGlobals()}
	for name, v := range globals {
		r.globals.Set(name, v)
	}
	r.Local = NewLocal(New(cfg), in, mod.Lines, func() error {
		r.err = in.RunInEnv(mod, r.globals)
		return r.err
	})
	return r
}

// Result returns the module's globals and the run's error once it ended.
func (r *moduleRun) Result() (*script.Env, error) {
	if _, ended := r.Ended(); !ended {
		return nil, errors.New("debuggee has not finished")
	}
	return r.globals, r.err
}

const countdownSrc = `total = 0
for i in range(0, 5):
    total = total + i
result = total * 2
`

func TestBreakpointAndLocals(t *testing.T) {
	s := newModuleRun(parseMod(t, countdownSrc), Config{}, nil)
	s.SetBreakpoint(3, "")
	ev := s.Start()
	if ev.Reason != ReasonBreakpoint || ev.Line != 3 {
		t.Fatalf("first stop: %+v", ev)
	}
	vars, err := s.Locals()
	if err != nil {
		t.Fatal(err)
	}
	if vars["i"].Repr() != "0" || vars["total"].Repr() != "0" {
		t.Fatalf("locals: i=%v total=%v", vars["i"], vars["total"])
	}
	ev = s.Continue()
	if ev.Reason != ReasonBreakpoint || ev.Line != 3 {
		t.Fatalf("second stop: %+v", ev)
	}
	vars, _ = s.Locals()
	if vars["i"].Repr() != "1" {
		t.Fatalf("i on second hit: %v", vars["i"])
	}
	// run to completion
	s.ClearBreakpoint(3)
	ev = s.Continue()
	if !ev.Terminal || ev.Reason != ReasonDone || ev.Err != nil {
		t.Fatalf("terminal: %+v", ev)
	}
	env, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	v, _ := env.Get("result")
	if v.Repr() != "20" {
		t.Fatalf("result: %s", v.Repr())
	}
}

func TestConditionalBreakpoint(t *testing.T) {
	s := newModuleRun(parseMod(t, countdownSrc), Config{}, nil)
	s.SetBreakpoint(3, "i == 3")
	ev := s.Start()
	if ev.Reason != ReasonBreakpoint {
		t.Fatalf("stop: %+v", ev)
	}
	vars, _ := s.Locals()
	if vars["i"].Repr() != "3" {
		t.Fatalf("condition should skip until i==3, got %v", vars["i"])
	}
	ev = s.Continue()
	if !ev.Terminal {
		t.Fatalf("should finish: %+v", ev)
	}
}

func TestStopOnEntryAndStepping(t *testing.T) {
	src := `def helper(x):
    y = x + 1
    return y

a = helper(1)
b = helper(a)
c = a + b
`
	s := newModuleRun(parseMod(t, src), Config{StopOnEntry: true}, nil)
	ev := s.Start()
	if ev.Reason != ReasonEntry || ev.Line != 1 {
		t.Fatalf("entry: %+v", ev)
	}
	// step over the def
	ev = s.StepOver()
	if ev.Line != 5 {
		t.Fatalf("after def: %+v", ev)
	}
	// step into helper
	ev = s.StepInto()
	if ev.Line != 2 || ev.FuncName != "helper" {
		t.Fatalf("into helper: %+v", ev)
	}
	stack, err := s.Stack()
	if err != nil {
		t.Fatal(err)
	}
	if len(stack) != 2 || stack[0].FuncName != "helper" || stack[1].FuncName != "<module>" {
		t.Fatalf("stack: %+v", stack)
	}
	// step out back to module level
	ev = s.StepOut()
	if ev.FuncName != "<module>" {
		t.Fatalf("out: %+v", ev)
	}
	// step over the second call without entering it
	ev = s.StepOver()
	if ev.FuncName != "<module>" || ev.Line != 7 {
		t.Fatalf("over: %+v", ev)
	}
	ev = s.Continue()
	if !ev.Terminal {
		t.Fatalf("terminal: %+v", ev)
	}
	env, _ := s.Result()
	v, _ := env.Get("c")
	if v.Repr() != "5" {
		t.Fatalf("c = %s", v.Repr())
	}
}

func TestWatchExpressions(t *testing.T) {
	s := newModuleRun(parseMod(t, countdownSrc), Config{}, nil)
	s.SetBreakpoint(4, "")
	ev := s.Start()
	if ev.Line != 4 {
		t.Fatalf("stop: %+v", ev)
	}
	v, err := s.Eval("total * 10")
	if err != nil {
		t.Fatal(err)
	}
	if v.Repr() != "100" {
		t.Fatalf("watch: %s", v.Repr())
	}
	if _, err := s.Eval("undefined_name"); err == nil {
		t.Fatal("watch of undefined name should error")
	}
	if _, err := s.Eval("x = 1"); err == nil {
		t.Fatal("watch must reject statements")
	}
	s.Kill()
}

func TestKill(t *testing.T) {
	s := newModuleRun(parseMod(t, "i = 0\nwhile True:\n    i = i + 1\n"), Config{}, nil)
	s.SetBreakpoint(3, "")
	ev := s.Start()
	if ev.Reason != ReasonBreakpoint {
		t.Fatalf("stop: %+v", ev)
	}
	ev = s.Kill()
	if ev.Reason != ReasonKilled || !ev.Terminal {
		t.Fatalf("kill: %+v", ev)
	}
	// further control is rejected cleanly
	ev = s.Continue()
	if ev.Err == nil {
		t.Fatal("control after kill should error")
	}
}

func TestExceptionReporting(t *testing.T) {
	s := newModuleRun(parseMod(t, "x = 1\ny = x / 0\n"), Config{}, nil)
	ev := s.Start()
	if ev.Reason != ReasonDone || ev.Err == nil {
		t.Fatalf("terminal: %+v", ev)
	}
	if !strings.Contains(ev.Err.Error(), "division by zero") {
		t.Fatalf("err: %v", ev.Err)
	}
}

func TestGlobalsInjection(t *testing.T) {
	s := newModuleRun(parseMod(t, "doubled = seed * 2\n"), Config{},
		map[string]script.Value{"seed": script.IntVal(21)})
	ev := s.Start()
	if ev.Err != nil {
		t.Fatal(ev.Err)
	}
	env, _ := s.Result()
	v, _ := env.Get("doubled")
	if v.Repr() != "42" {
		t.Fatalf("doubled: %s", v.Repr())
	}
}

// TestScenarioADebugging walks the paper's Scenario A: the developer sets a
// breakpoint inside the buggy mean_deviation loop and watches `distance`
// go negative — impossible for a sum of absolute differences — exposing
// the missing abs().
func TestScenarioADebugging(t *testing.T) {
	src := `def mean_deviation(column):
    mean = 0
    for i in range(0, len(column)):
        mean += column[i]
    mean = mean / len(column)
    distance = 0
    for i in range(0, len(column)):
        distance += column[i] - mean
    deviation = distance / len(column)
    return deviation

result = mean_deviation([1, 2, 3, 4, 100])
`
	s := newModuleRun(parseMod(t, src), Config{}, nil)
	// watch the accumulator each time around the second loop
	s.SetBreakpoint(8, "")
	ev := s.Start()
	sawNegative := false
	for ev.Reason == ReasonBreakpoint {
		v, err := s.Eval("distance")
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(v.Repr(), "-") {
			sawNegative = true
		}
		ev = s.Continue()
	}
	if !ev.Terminal {
		t.Fatalf("expected completion, got %+v", ev)
	}
	if !sawNegative {
		t.Fatal("the debugger should reveal a negative distance accumulator (the Scenario A bug)")
	}
}

func TestRequestPause(t *testing.T) {
	// A long-running loop with no breakpoints: RequestPause is the only
	// way to stop it (PyCharm's "Pause Program").
	src := "i = 0\nwhile i < 100000000:\n    i = i + 1\n"
	s := newModuleRun(parseMod(t, src), Config{}, nil)
	done := make(chan Event, 1)
	go func() { done <- s.Start() }()
	// let it run a little, then pause
	time.Sleep(20 * time.Millisecond)
	s.RequestPause()
	select {
	case ev := <-done:
		if ev.Reason != ReasonPause {
			t.Fatalf("expected pause, got %+v", ev)
		}
		v, err := s.Eval("i")
		if err != nil {
			t.Fatal(err)
		}
		if n, ok := v.(script.IntVal); !ok || n <= 0 {
			t.Fatalf("i should have advanced: %v", v)
		}
		kill := s.Kill()
		if kill.Reason != ReasonKilled {
			t.Fatalf("kill: %+v", kill)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pause never landed")
	}
}

func TestBreakpointHitCounts(t *testing.T) {
	s := newModuleRun(parseMod(t, countdownSrc), Config{}, nil)
	s.SetBreakpoint(3, "")
	ev := s.Start()
	hits := 1
	for {
		ev = s.Continue()
		if ev.Terminal {
			break
		}
		hits++
	}
	if hits != 5 {
		t.Fatalf("hits: %d", hits)
	}
	bps := s.Breakpoints()
	if len(bps) != 1 || bps[0].HitCount != 5 {
		t.Fatalf("breakpoint meta: %+v", bps)
	}
}

// TestConditionInFunctionFrames: a breakpoint's condition is parsed once,
// when it is set, and resolved against the frame that hits its line — the
// same name is a different slot in each of the two functions here.
// Replacing the breakpoint replaces the condition, a condition that does
// not parse or does not evaluate never stops, and Locals of a function
// frame lists its bound variables only.
func TestConditionInFunctionFrames(t *testing.T) {
	const src = `scale = 10
def first(i, pad):
    unused = None
    return i * scale
def second(pad, i):
    return i + scale
total = 0
for k in range(0, 6):
    total += first(k, 0) + second(0, k)
`
	s := newModuleRun(parseMod(t, src), Config{}, nil)
	s.SetBreakpoint(3, "i == 2 and scale == 10") // first: i is slot 0
	s.SetBreakpoint(6, "i == 4")                 // second: i is slot 1
	s.SetBreakpoint(9, "k ==")                   // does not parse
	s.SetBreakpoint(7, "nosuch > 1")             // does not evaluate
	ev := s.Start()
	if ev.Reason != ReasonBreakpoint || ev.Line != 3 || ev.FuncName != "first" {
		t.Fatalf("first stop: %+v", ev)
	}
	vars, err := s.Locals()
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 2 || vars["i"].Repr() != "2" || vars["pad"].Repr() != "0" {
		t.Fatalf("locals of first before `unused` is bound: %v", vars)
	}
	// Same line, new condition: the old one must not be consulted again.
	s.SetBreakpoint(3, "i == 5")
	ev = s.Continue()
	if ev.Line != 6 || ev.FuncName != "second" {
		t.Fatalf("second stop: %+v", ev)
	}
	if v, err := s.Eval("[i, pad, scale, len([i])]"); err != nil || v.Repr() != "[4, 0, 10, 1]" {
		t.Fatalf("eval in second: %v %v", v, err)
	}
	ev = s.Continue()
	if ev.Line != 3 {
		t.Fatalf("third stop: %+v", ev)
	}
	if v, _ := s.Eval("i"); v.Repr() != "5" {
		t.Fatalf("replaced condition stopped at i=%v", v)
	}
	if ev = s.Continue(); !ev.Terminal || ev.Err != nil {
		t.Fatalf("terminal: %+v", ev)
	}
	for _, bp := range s.Breakpoints() {
		want := map[int]int{3: 1, 6: 1, 7: 0, 9: 0}[bp.Line] // line 3 was replaced after its first hit
		if bp.HitCount != want {
			t.Errorf("line %d (%q): %d hits, want %d", bp.Line, bp.Condition, bp.HitCount, want)
		}
	}
}

// TestWatchHonoursGlobalDeclaration: a watch in a function that declares
// `global x` reads the module's x, as the paused code does, not the local x
// of the enclosing function.
func TestWatchHonoursGlobalDeclaration(t *testing.T) {
	const src = `x = 'module'
def outer():
    x = 'outer'
    def inner():
        global x
        return x
    return inner()
r = outer()
`
	s := newModuleRun(parseMod(t, src), Config{}, nil)
	s.SetBreakpoint(6, "x == 'module'")
	ev := s.Start()
	if ev.Reason != ReasonBreakpoint || ev.Line != 6 || ev.FuncName != "inner" {
		t.Fatalf("stop: %+v", ev)
	}
	if v, err := s.Eval("x"); err != nil || v.Repr() != "'module'" {
		t.Fatalf("eval x in inner: %v %v", v, err)
	}
	if ev = s.Continue(); !ev.Terminal || ev.Err != nil {
		t.Fatalf("terminal: %+v", ev)
	}
}

// TestColumnBackedArgumentIsAListToTheDebugger: a UDF's column argument is
// a list wrapping the column's vector, and the interpreter keeps numbers
// unboxed in its frames. The debugger must see neither: locals are the
// boxed values they always were, watches index, measure and slice the
// column, and a conditional breakpoint on the loop index hits once.
func TestColumnBackedArgumentIsAListToTheDebugger(t *testing.T) {
	src := `def mean_deviation(column):
    mean = 0
    for i in range(0, len(column)):
        mean += column[i]
    mean = mean / len(column)
    distance = 0
    for i in range(0, len(column)):
        distance += column[i] - mean
    deviation = distance / len(column)
    return deviation

result = mean_deviation(data)
`
	data := script.NewIntList([]int64{1, 2, 3, 4, 100}, nil)
	s := newModuleRun(parseMod(t, src), Config{}, map[string]script.Value{"data": data})
	s.SetBreakpoint(8, "i == 3")
	ev := s.Start()
	if ev.Reason != ReasonBreakpoint || ev.Line != 8 || ev.FuncName != "mean_deviation" {
		t.Fatalf("stop: %+v", ev)
	}
	vars, err := s.Locals()
	if err != nil {
		t.Fatal(err)
	}
	if vars["i"] != script.IntVal(3) {
		t.Errorf("i = %#v, want IntVal(3)", vars["i"])
	}
	if mean, ok := vars["mean"].(script.FloatVal); !ok || mean != 22 {
		t.Errorf("mean = %#v, want FloatVal(22)", vars["mean"])
	}
	if col := vars["column"]; col.TypeName() != "list" || col.Repr() != "[1, 2, 3, 4, 100]" {
		t.Errorf("column = %s %s", col.TypeName(), col.Repr())
	}
	for expr, want := range map[string]string{
		"column[i]": "int 4", "len(column)": "int 5", "column[0:3]": "list [1, 2, 3]", "distance": "float -60.0",
	} {
		v, err := s.Eval(expr)
		if err != nil || v.TypeName()+" "+v.Repr() != want {
			t.Errorf("watch %s = %v %v, want %s", expr, v, err, want)
		}
	}
	if ev = s.Continue(); !ev.Terminal || ev.Err != nil {
		t.Fatalf("the condition holds once, then the run ends: %+v", ev)
	}
	if bps := s.Breakpoints(); len(bps) != 1 || bps[0].HitCount != 1 {
		t.Errorf("breakpoints: %+v", bps)
	}
	env, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := env.Get("result"); v != script.FloatVal(0) {
		t.Errorf("result = %#v", v)
	}
	if data.Repr() != "[1, 2, 3, 4, 100]" {
		t.Errorf("the argument changed: %s", data.Repr())
	}
}

// TestGlobalVarsAfterABuiltinRunsAModule: a Go builtin that runs a second
// module on the debuggee's interpreter (devUDF's local _conn does, for a
// nested UDF) leaves the paused frame's globals as they were: the
// debugger's globals are the paused frame's module scope, not the scope of
// the last module the interpreter ran.
func TestGlobalVarsAfterABuiltinRunsAModule(t *testing.T) {
	other := parseMod(t, "helper = 1\n")
	load := &script.BuiltinVal{Name: "load", Fn: func(in *script.Interp, _ []script.Value, _ map[string]script.Value) (script.Value, error) {
		_, err := in.Run(other)
		return script.None, err
	}}
	s := newModuleRun(parseMod(t, "x = 1\nload()\ny = 2\n"), Config{}, map[string]script.Value{"load": load})
	s.SetBreakpoint(3, "")
	if ev := s.Start(); ev.Reason != ReasonBreakpoint || ev.Line != 3 {
		t.Fatalf("stop: %+v", ev)
	}
	vars, err := s.GlobalVars()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := slices.Sorted(maps.Keys(vars)), []string{"load", "x"}; !slices.Equal(got, want) {
		t.Fatalf("globals %v, want %v", got, want)
	}
	if ev := s.Continue(); !ev.Terminal || ev.Err != nil {
		t.Fatalf("terminal: %+v", ev)
	}
}

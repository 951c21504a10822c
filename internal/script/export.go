package script

import "repro/internal/core"

// Exported conversion helpers for packages that embed PyLite (the engine,
// the wire layer and native modules such as mllib).

// ToSlice materializes any iterable value into a Go slice of values.
func ToSlice(in *Interp, v Value) ([]Value, error) { return toSlice(in, v) }

// AsFloat converts bool/int/float values to float64.
func AsFloat(v Value) (float64, bool) { return asFloat(v) }

// AsInt converts bool/int values to int64.
func AsInt(v Value) (int64, bool) { return asInt(v) }

// Watch is a parsed debugger expression: a watch or a breakpoint condition.
// Parse it once and evaluate it at every stop; it re-resolves itself only
// when the paused frame belongs to a different function than last time.
type Watch struct {
	x     Expr
	in    *funcInfo // scope of the frame x is resolved against
	scope *funcInfo // slots for names x itself binds; nil until resolved
	fn    evalFn    // x, compiled once resolved
}

// ParseWatch parses src as a single expression.
func ParseWatch(src string) (*Watch, error) {
	mod, err := parse("<watch>", src)
	if err != nil {
		return nil, err
	}
	if len(mod.Body) != 1 {
		return nil, core.Errorf(core.KindSyntax, "watch input must be a single expression")
	}
	es, ok := mod.Body[0].(*ExprStmt)
	if !ok {
		return nil, core.Errorf(core.KindSyntax, "watch input must be an expression, not a statement")
	}
	return &Watch{x: es.X}, nil
}

// EvalWatch evaluates w in the given frame: names resolve against the
// frame's slot-name table, then its enclosing functions', module scope and
// builtins. It must only be called while the interpreter is paused inside
// a trace callback (the interpreter is single-threaded).
func (in *Interp) EvalWatch(w *Watch, f *Frame) (Value, error) {
	if w.scope == nil || w.in != f.scope {
		w.x, w.scope = resolveWatch(w.x, f.scope)
		w.in, w.fn = f.scope, compileExpr(w.x)
	}
	wf := *f // stands in for f in tracebacks
	wf.scope, wf.slots, wf.outer = w.scope, make([]val, w.scope.nslots), f
	saveFrame, saveTrace := in.frame, in.Trace
	in.frame = &wf
	in.Trace = nil // watch evaluation must not re-enter the debugger
	defer func() { in.frame, in.Trace = saveFrame, saveTrace }()
	v, err := w.fn(in, &wf)
	return v.box(), err
}

// EvalInFrame parses src as a single expression and evaluates it in the
// given frame, under the rules of EvalWatch.
func (in *Interp) EvalInFrame(src string, f *Frame) (Value, error) {
	w, err := ParseWatch(src)
	if err != nil {
		return nil, err
	}
	return in.EvalWatch(w, f)
}

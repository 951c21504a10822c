package script

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
)

// TraceKind classifies trace events delivered to the debugger hook.
type TraceKind int

// Trace event kinds, mirroring CPython's sys.settrace events.
const (
	TraceLine TraceKind = iota
	TraceCall
	TraceReturn
	TraceException
)

func (k TraceKind) String() string {
	switch k {
	case TraceLine:
		return "line"
	case TraceCall:
		return "call"
	case TraceReturn:
		return "return"
	case TraceException:
		return "exception"
	default:
		return "?"
	}
}

// TraceEvent is delivered to the interpreter's Trace hook before each line,
// on function entry/exit and when an error propagates.
type TraceEvent struct {
	Kind  TraceKind
	Frame *Frame
	Line  int
	Err   error // TraceException only
}

// TraceFunc observes execution. Returning a non-nil error aborts the script
// (the debugger uses this for "stop").
type TraceFunc func(*Interp, TraceEvent) error

// Frame is one activation record on the PyLite call stack.
type Frame struct {
	FuncName string
	Module   *Module
	Line     int
	Caller   *Frame
	Depth    int

	globals *Env      // module scope of the running code
	scope   *funcInfo // slot names; nil for a module-level frame
	slots   []val     // locals by slot, the zero val while unbound
	outer   *Frame    // defining frame of the running function
	ret     val       // value of the return statement unwinding this frame
}

// Locals returns the frame's bound local variables by name, boxed; for a
// module-level frame these are the module's globals.
func (f *Frame) Locals() map[string]Value {
	if f.scope == nil {
		return f.globals.Snapshot()
	}
	out := make(map[string]Value, len(f.slots))
	for name, i := range f.scope.slot {
		if v := f.slots[i]; v.bound() {
			out[name] = v.box()
		}
	}
	return out
}

// Globals returns the module scope the frame runs in.
func (f *Frame) Globals() *Env { return f.globals }

// Interp executes PyLite modules. The zero value is not usable; construct
// with NewInterp. An Interp is not safe for concurrent use; the engine
// creates one per query (or per connection for loopback state).
type Interp struct {
	// Stdout receives print() output.
	Stdout io.Writer
	// FS backs the os module and open(); nil disables file access.
	FS core.FS
	// MaxSteps aborts runaway scripts when > 0.
	MaxSteps int64
	// Interrupt, when set, is polled every 1024 interpreter steps; a
	// non-nil result aborts the script with that error. The engine arms it
	// with the statement's cancellation signal, so a cancelled or timed-out
	// query preempts a long-running interpreted UDF.
	Interrupt func() error
	// Trace, when set, observes line/call/return/exception events.
	Trace TraceFunc

	modules map[string]Value
	steps   int64
	frame   *Frame
	// stack holds the arguments of calls in flight, so a call allocates no
	// argument slice; a callee sees its window only until it returns. boxed
	// is the same for a callee written against Value: its window, boxed.
	stack []val
	boxed []Value
}

// NewInterp returns a ready interpreter.
func NewInterp() *Interp {
	return &Interp{Stdout: io.Discard, modules: map[string]Value{}}
}

// Steps reports the number of statements executed so far.
func (in *Interp) Steps() int64 { return in.steps }

// control-flow signals, implemented as error sentinels.
type breakSignal struct{}
type continueSignal struct{}
type returnSignal struct{} // the value travels in Frame.ret

func (breakSignal) Error() string    { return "break outside loop" }
func (continueSignal) Error() string { return "continue outside loop" }
func (returnSignal) Error() string   { return "return outside function" }

// RuntimeError is a PyLite runtime failure carrying a script-level
// traceback. It unwraps to a *core.Error of kind KindRuntime.
type RuntimeError struct {
	Msg   string
	Line  int
	Stack []string // innermost last, "func (module:line)"
	// Value carries the raised value for `raise` so try/except can bind it.
	Value Value
}

func (e *RuntimeError) Error() string {
	var sb strings.Builder
	sb.WriteString(e.Msg)
	if len(e.Stack) > 0 {
		sb.WriteString("\nTraceback (most recent call last):")
		for _, fr := range e.Stack {
			sb.WriteString("\n  ")
			sb.WriteString(fr)
		}
	}
	return sb.String()
}

// Unwrap exposes the error kind for core.KindOf.
func (e *RuntimeError) Unwrap() error { return core.Errorf(core.KindRuntime, "%s", e.Msg) }

func (in *Interp) rtErrf(line int, format string, args ...any) *RuntimeError {
	e := &RuntimeError{Msg: fmt.Sprintf(format, args...), Line: line}
	for f := in.frame; f != nil; f = f.Caller {
		mod := "<script>"
		if f.Module != nil {
			mod = f.Module.Name
		}
		e.Stack = append([]string{fmt.Sprintf("%s (%s:%d)", f.FuncName, mod, f.Line)}, e.Stack...)
	}
	return e
}

// Run executes a module in a fresh global environment and returns it.
func (in *Interp) Run(mod *Module) (*Env, error) {
	globals := in.NewGlobals()
	err := in.RunInEnv(mod, globals)
	if _, ok := err.(returnSignal); ok {
		err = nil
	}
	return globals, err
}

// RunInEnv executes a module's body in an existing global environment. The
// devUDF local-run harness uses this to execute generated prologue +
// function definitions in one scope.
func (in *Interp) RunInEnv(mod *Module, globals *Env) error {
	prev := in.frame
	in.frame = &Frame{FuncName: "<module>", Module: mod, globals: globals}
	defer func() { in.frame = prev }()
	return mod.code.exec(in, in.frame)
}

// NewGlobals creates an empty module scope.
func (in *Interp) NewGlobals() *Env { return &Env{vars: map[string]Value{}} }

// Call invokes a callable value (function or builtin) from Go with
// positional arguments. This is how the engine executes UDFs.
func (in *Interp) Call(fn Value, args []Value) (Value, error) {
	base := len(in.stack)
	for _, a := range args {
		in.stack = append(in.stack, unbox(a))
	}
	v, err := in.call(fn, in.args(base), nil, 0)
	in.popArgs(base)
	return v.box(), err
}

func (in *Interp) bumpStep(line int) error {
	in.steps++
	if in.steps&1023 != 0 && (in.MaxSteps <= 0 || in.steps <= in.MaxSteps) {
		return nil
	}
	return in.checkStep(line)
}

// checkStep is bumpStep's slow path, out of line so a step stays a cheap call.
// The interrupt's error propagates untouched: its kind (cancelled, resource)
// must survive to the wire.
func (in *Interp) checkStep(line int) error {
	if in.MaxSteps > 0 && in.steps > in.MaxSteps {
		return in.rtErrf(line, "step limit exceeded (%d)", in.MaxSteps)
	}
	if in.Interrupt != nil && in.steps&1023 == 0 {
		return in.Interrupt()
	}
	return nil
}

// env returns what a function defined in f keeps of it: its variables, not
// its place on the call stack, which would keep every caller's locals alive
// for as long as the function value lives.
func (f *Frame) env() *Frame {
	if f.Caller == nil {
		return f
	}
	return &Frame{globals: f.globals, scope: f.scope, slots: f.slots, outer: f.outer}
}

// up returns the frame depth function scopes out from f.
func (f *Frame) up(depth int) *Frame {
	for ; depth > 0; depth-- {
		f = f.outer
	}
	return f
}

// load reads a resolved name.
func (in *Interp) load(n *Name, f *Frame) (val, error) {
	switch n.kind {
	case nameLocal:
		if v := f.up(n.depth).slots[n.idx]; v.bound() {
			return v, nil
		}
		if n.depth == 0 {
			return val{}, in.rtErrf(n.Pos(), "local variable '%s' referenced before assignment", n.Ident)
		}
		// An unbound local of an enclosing function — for a watch, of the
		// paused frame — reads through to module scope, as eval() in that
		// frame would.
	case nameBuiltin:
		if f.globals.shadowed {
			if v, ok := f.globals.vars[n.Ident]; ok {
				return unbox(v), nil
			}
		}
		return val{ref: builtinTable[n.idx]}, nil
	}
	if v, ok := f.globals.vars[n.Ident]; ok {
		return unbox(v), nil
	}
	return val{}, in.rtErrf(n.Pos(), "name '%s' is not defined", n.Ident)
}

// store binds a resolved name: a function only ever writes its own slots,
// anything else is module scope, which holds boxed values.
func (in *Interp) store(n *Name, v val, f *Frame) {
	if n.kind == nameLocal {
		f.slots[n.idx] = v
		return
	}
	if n.kind == nameBuiltin {
		f.globals.shadowed = true
	}
	f.globals.vars[n.Ident] = v.box()
}

// seq walks an iterable. A range — what a UDF loops over — is counted
// through without being built, and a list is read cell by cell from whichever
// lane holds it, so neither boxes anything; anything else is walked as a list
// of its items.
type seq struct {
	list *ListVal // nil for a range
	r    RangeVal
	k, n int64
}

func (in *Interp) seq(v Value, line int) (seq, error) {
	switch v := v.(type) {
	case RangeVal:
		if v.Step != 0 {
			return seq{r: v, n: v.Len()}, nil
		}
	case *ListVal:
		return seq{list: v, n: int64(v.Len())}, nil
	}
	items, err := in.items(v, line)
	return seq{list: &ListVal{Items: items}, n: int64(len(items))}, err
}

func (s *seq) next() (val, bool) {
	if s.k >= s.n {
		return val{}, false
	}
	s.k++
	if s.list == nil {
		return intV(s.r.Start + (s.k-1)*s.r.Step), true
	}
	// The loop sees writes to the list but not its growth, and ends early if
	// the list shrinks under it.
	if s.k > int64(s.list.Len()) {
		return val{}, false
	}
	return s.list.at(int(s.k - 1)), true
}

// iterated is the one rule for how a loop iteration ends: however it ended —
// normally, by continue, or on a comprehension's false filter — it counts the
// loop's step. done reports that the loop is over, by a break (err is nil),
// an error, or the step limit or interrupt.
func (in *Interp) iterated(err error, line int) (done bool, _ error) {
	switch err.(type) {
	case nil, continueSignal:
		err = in.bumpStep(line)
		return err != nil, err
	case breakSignal:
		return true, nil
	}
	return true, err
}

// items returns the elements any iterable value yields, boxed, in a slice
// the caller must not modify (a list's or tuple's is its own). A list in a
// typed lane leaves it here: see ListVal.Boxed.
func (in *Interp) items(v Value, line int) ([]Value, error) {
	switch v := v.(type) {
	case *ListVal:
		return v.Boxed(), nil
	case *TupleVal:
		return v.Items, nil
	case RangeVal:
		if err := v.materialize(); err != nil {
			return nil, in.rtErrf(line, "%s", core.Message(err))
		}
		out := make([]Value, v.Len())
		for k := range out {
			out[k] = IntVal(v.Start + int64(k)*v.Step)
		}
		return out, nil
	case StrVal:
		var out []Value
		for _, r := range string(v) {
			out = append(out, StrVal(string(r)))
		}
		return out, nil
	case *DictVal:
		return v.Keys(), nil
	case *ObjectVal:
		if it, ok := v.Opaque.(interface{ IterValues() ([]Value, error) }); ok {
			items, err := it.IterValues()
			if err != nil {
				return nil, in.rtErrf(line, "%v", err)
			}
			return items, nil
		}
	}
	return nil, in.rtErrf(line, "'%s' object is not iterable", v.TypeName())
}

// args is the argument window starting at base, capped so that a callee
// appending to it cannot write into the stack.
func (in *Interp) args(base int) []val { return in.stack[base:len(in.stack):len(in.stack)] }

// popArgs releases a window, dropping its references: the stack outlives
// the call by as long as the interpreter does.
func (in *Interp) popArgs(base int) {
	for i := base; i < len(in.stack); i++ { // windows are an element or two: cheaper than clear's bulk barrier
		in.stack[i].ref = nil
	}
	in.stack = in.stack[:base]
}

// boxArgs boxes a window for a callee written against Value — a generic
// builtin, a method, a native object — onto the boxed stack; the caller
// releases it with popBoxed.
func (in *Interp) boxArgs(args []val) []Value {
	base := len(in.boxed)
	for _, a := range args {
		in.boxed = append(in.boxed, a.box())
	}
	return in.boxed[base:len(in.boxed):len(in.boxed)]
}

func (in *Interp) popBoxed(n int) {
	base := len(in.boxed) - n
	clear(in.boxed[base:])
	in.boxed = in.boxed[:base]
}

// builtinResult shapes what a Go-implemented callable returned: nil means
// None, and a plain Go error becomes a script error naming the callable —
// except a cancellation or budget error (a loopback query interrupted, say),
// which propagates untouched, as the interrupt's own does (checkStep).
func (in *Interp) builtinResult(v Value, err error, typ, name string, line int) (val, error) {
	if err != nil {
		if _, ok := err.(*RuntimeError); ok {
			return val{}, err
		}
		if k := core.KindOf(err); k == core.KindCancelled || k == core.KindResource {
			return val{}, err
		}
		if typ != "" {
			name = typ + "." + name
		}
		return val{}, in.rtErrf(line, "%s: %v", name, core.Message(err))
	}
	if v == nil {
		return noneV, nil
	}
	return unbox(v), nil
}

// call dispatches on callable kind. args is only valid during the call.
func (in *Interp) call(fn Value, args []val, kwargs map[string]Value, line int) (val, error) {
	switch fn := fn.(type) {
	case *BuiltinVal:
		if fn.lane != nil && kwargs == nil {
			v, err := fn.lane(in, args)
			if err != nil {
				return in.builtinResult(nil, err, "", fn.Name, line)
			}
			return v, nil
		}
		boxed := in.boxArgs(args)
		v, err := fn.Fn(in, boxed, kwargs)
		in.popBoxed(len(boxed))
		return in.builtinResult(v, err, "", fn.Name, line)
	case *FuncVal:
		return in.callFunc(fn, args, kwargs, line)
	default:
		return val{}, in.rtErrf(line, "'%s' object is not callable", fn.TypeName())
	}
}

const maxCallDepth = 200

func (in *Interp) callFunc(fn *FuncVal, args []val, kwargs map[string]Value, line int) (val, error) {
	caller := in.frame
	depth := 0
	if caller != nil {
		depth = caller.Depth + 1
	}
	if depth > maxCallDepth {
		return val{}, in.rtErrf(line, "maximum recursion depth exceeded")
	}
	if len(args) > len(fn.Params) {
		return val{}, in.rtErrf(line, "%s() takes %d arguments but %d were given",
			displayName(fn), len(fn.Params), len(args))
	}
	frame := &Frame{
		FuncName: displayName(fn), Module: fn.Module, Line: fn.DefLine, Caller: caller, Depth: depth,
		globals: fn.Closure.globals, scope: fn.code.scope, slots: make([]val, fn.code.scope.nslots), outer: fn.Closure,
	}
	// Parameters are the first slots; the zero val is an unbound one.
	copy(frame.slots, args)
	for name, v := range kwargs {
		i := 0
		for i < len(fn.Params) && fn.Params[i].Name != name {
			i++
		}
		if i == len(fn.Params) {
			return val{}, in.rtErrf(line, "%s() got an unexpected keyword argument '%s'", displayName(fn), name)
		}
		if frame.slots[i].bound() {
			return val{}, in.rtErrf(line, "%s() got multiple values for argument '%s'", displayName(fn), name)
		}
		frame.slots[i] = unbox(v)
	}
	for i, p := range fn.Params {
		if frame.slots[i].bound() {
			continue
		}
		def := fn.code.defaults[i]
		if def == nil {
			return val{}, in.rtErrf(line, "%s() missing required argument: '%s'", displayName(fn), p.Name)
		}
		// Defaults are evaluated per call, in the defining scope.
		dframe := *fn.Closure
		dframe.FuncName, dframe.Module, dframe.Line, dframe.Caller, dframe.Depth =
			frame.FuncName, fn.Module, fn.DefLine, caller, depth
		in.frame = &dframe
		dv, err := def(in, &dframe)
		in.frame = caller
		if err != nil {
			return val{}, err
		}
		frame.slots[i] = dv
	}
	in.frame = frame
	result, err := in.runFrame(fn, frame)
	in.frame = caller
	return result, err
}

// runFrame executes fn's body in its prepared frame, reporting call, return
// and exception to the trace hook.
func (in *Interp) runFrame(fn *FuncVal, frame *Frame) (val, error) {
	if in.Trace != nil {
		if err := in.Trace(in, TraceEvent{Kind: TraceCall, Frame: frame, Line: fn.DefLine}); err != nil {
			return val{}, err
		}
	}
	result := noneV
	var err error
	if fn.code.expr != nil { // lambda
		result, err = fn.code.expr(in, frame)
	} else {
		err = fn.code.body.exec(in, frame)
		if _, ok := err.(returnSignal); ok {
			result, err = frame.ret, nil
		}
	}
	if err != nil {
		if in.Trace != nil {
			_ = in.Trace(in, TraceEvent{Kind: TraceException, Frame: frame, Line: frame.Line, Err: err})
		}
		return val{}, err
	}
	if in.Trace != nil {
		if terr := in.Trace(in, TraceEvent{Kind: TraceReturn, Frame: frame, Line: frame.Line}); terr != nil {
			return val{}, terr
		}
	}
	return result, nil
}

func displayName(fn *FuncVal) string {
	if fn.Name == "" {
		return "<lambda>"
	}
	return fn.Name
}

// cell turns i into an index into n cells, counting a negative one from the
// end; ok is false when it falls outside them.
func cell(i, n int64) (int64, bool) {
	if i < 0 {
		i += n
	}
	return i, i >= 0 && i < n
}

func (in *Interp) index(x, idx val, line int) (val, error) {
	i, isInt := idx.asInt()
	// at checks i as an index into a list or tuple of n cells.
	at := func(n int) (int, error) {
		if !isInt {
			return 0, in.rtErrf(line, "%s indices must be integers, not %s", x.typeName(), idx.typeName())
		}
		k, ok := cell(i, int64(n))
		if !ok {
			return 0, in.rtErrf(line, "%s index out of range", x.typeName())
		}
		return int(k), nil
	}
	switch c := x.ref.(type) {
	case *ListVal:
		k, err := at(c.Len())
		if err != nil {
			return val{}, err
		}
		return c.at(k), nil
	case *TupleVal:
		k, err := at(len(c.Items))
		if err != nil {
			return val{}, err
		}
		return unbox(c.Items[k]), nil
	case StrVal:
		if !isInt {
			return val{}, in.rtErrf(line, "string indices must be integers")
		}
		runes := []rune(string(c))
		k, ok := cell(i, int64(len(runes)))
		if !ok {
			return val{}, in.rtErrf(line, "string index out of range")
		}
		return val{ref: StrVal(string(runes[k]))}, nil
	case *DictVal:
		key := idx.box()
		v, ok, err := c.Get(key)
		if err != nil {
			return val{}, in.rtErrf(line, "%v", err)
		}
		if !ok {
			return val{}, in.rtErrf(line, "KeyError: %s", key.Repr())
		}
		return unbox(v), nil
	case RangeVal:
		if !isInt {
			return val{}, in.rtErrf(line, "range indices must be integers")
		}
		k, ok := cell(i, c.Len())
		if !ok {
			return val{}, in.rtErrf(line, "range index out of range")
		}
		return intV(c.Start + k*c.Step), nil
	default:
		return val{}, in.rtErrf(line, "'%s' object is not subscriptable", x.typeName())
	}
}

func (in *Interp) slice(x, lo, hi val, line int) (val, error) {
	var n int64
	var runes []rune
	switch c := x.ref.(type) {
	case *ListVal:
		n = int64(c.Len())
	case *TupleVal:
		n = int64(len(c.Items))
	case StrVal:
		runes = []rune(string(c))
		n = int64(len(runes))
	default:
		return val{}, in.rtErrf(line, "'%s' object is not sliceable", x.typeName())
	}
	// bound clamps a slice bound to [0,n]; None means def.
	bound := func(v val, def int64) (int64, error) {
		if _, isNone := v.ref.(NoneVal); isNone {
			return def, nil
		}
		i, ok := v.asInt()
		if !ok {
			return 0, in.rtErrf(line, "slice indices must be integers")
		}
		if i < 0 {
			i += n
		}
		return min(max(i, 0), n), nil
	}
	start, err := bound(lo, 0)
	if err != nil {
		return val{}, err
	}
	stop, err := bound(hi, n)
	if err != nil {
		return val{}, err
	}
	stop = max(stop, start)
	switch c := x.ref.(type) {
	case *ListVal:
		return val{ref: c.slice(int(start), int(stop))}, nil
	case *TupleVal:
		return val{ref: &TupleVal{Items: append([]Value{}, c.Items[start:stop]...)}}, nil
	}
	return val{ref: StrVal(string(runes[start:stop]))}, nil
}

func (in *Interp) unop(op Op, x val, line int) (val, error) {
	if op == OpNot {
		return boolV(!x.truthy()), nil
	}
	if x.kind == kFloat {
		return floatV(-x.float()), nil
	}
	if i, ok := x.asInt(); ok { // bools negate as ints
		return intV(-i), nil
	}
	return val{}, in.rtErrf(line, "bad operand type for unary -: '%s'", x.typeName())
}

func (in *Interp) binop(op Op, l, r val, line int) (val, error) {
	// Numbers first: arithmetic and comparisons on them are what UDF loops
	// spend their time on, and neither side leaves the lane.
	if l.kind != kRef && r.kind != kRef && op <= OpPow {
		if l.kind == kInt && r.kind == kInt {
			return in.intArith(op, l.int(), r.int(), line)
		}
		return in.floatArith(op, l.float(), r.float(), line)
	}
	switch op {
	case OpEq:
		return boolV(equalVal(l, r)), nil
	case OpNe:
		return boolV(!equalVal(l, r)), nil
	case OpLt, OpLe, OpGt, OpGe:
		c, err := cmpVal(l, r)
		if err != nil {
			return val{}, in.rtErrf(line, "%v", err)
		}
		return boolV(ordered(op, c)), nil
	case OpIs:
		return boolV(identical(l.box(), r.box())), nil
	case OpIsNot:
		return boolV(!identical(l.box(), r.box())), nil
	case OpIn, OpNotIn:
		found, err := in.contains(r, l, line)
		if err != nil {
			return val{}, err
		}
		return boolV(found != (op == OpNotIn)), nil
	}

	// string/list algebra
	switch lv := l.ref.(type) {
	case StrVal:
		switch op {
		case OpAdd:
			if rv, ok := r.ref.(StrVal); ok {
				return val{ref: lv + rv}, nil
			}
		case OpMul:
			if n, ok := r.asInt(); ok {
				return val{ref: StrVal(strings.Repeat(string(lv), clampRepeat(n)))}, nil
			}
		case OpMod:
			v, err := in.formatPercent(string(lv), r.box(), line)
			return val{ref: v}, err
		}
	case *ListVal:
		switch op {
		case OpAdd:
			if rv, ok := r.ref.(*ListVal); ok {
				out := lv.slice(0, lv.Len())
				out.extend(rv)
				return val{ref: out}, nil
			}
		case OpMul:
			if n, ok := r.asInt(); ok {
				out := lv.slice(0, 0)
				for cnt := clampRepeat(n); cnt > 0; cnt-- {
					out.extend(lv)
				}
				return val{ref: out}, nil
			}
		}
	case *TupleVal:
		if rv, ok := r.ref.(*TupleVal); ok && op == OpAdd {
			return val{ref: &TupleVal{Items: slices.Concat(lv.Items, rv.Items)}}, nil
		}
	}

	// numeric tower, bools included
	li, lIsInt := l.asInt()
	ri, rIsInt := r.asInt()
	if lIsInt && rIsInt {
		return in.intArith(op, li, ri, line)
	}
	lf, lok := l.asFloat()
	rf, rok := r.asFloat()
	if lok && rok {
		return in.floatArith(op, lf, rf, line)
	}
	return val{}, in.rtErrf(line, "unsupported operand type(s) for %s: '%s' and '%s'",
		op, l.typeName(), r.typeName())
}

// ordered reports whether op (< <= > >=) holds of two values that Compare
// ordered as c.
func ordered(op Op, c int) bool {
	return (op == OpLt && c < 0) || (op == OpLe && c <= 0) || (op == OpGt && c > 0) || (op == OpGe && c >= 0)
}

func (in *Interp) intArith(op Op, li, ri int64, line int) (val, error) {
	switch op {
	case OpAdd:
		return intV(li + ri), nil
	case OpSub:
		return intV(li - ri), nil
	case OpMul:
		return intV(li * ri), nil
	case OpDiv:
		if ri == 0 {
			return val{}, in.rtErrf(line, "division by zero")
		}
		return floatV(float64(li) / float64(ri)), nil
	case OpFloorDiv, OpMod:
		if ri == 0 {
			return val{}, in.rtErrf(line, "integer division or modulo by zero")
		}
		if op == OpMod {
			return intV(pyMod(li, ri)), nil
		}
		return intV(floorDiv(li, ri)), nil
	default: // OpPow
		if ri < 0 {
			return in.floatArith(op, float64(li), float64(ri), line)
		}
		return intV(intPow(li, ri)), nil
	}
}

func (in *Interp) floatArith(op Op, lf, rf float64, line int) (val, error) {
	switch op {
	case OpAdd:
		return floatV(lf + rf), nil
	case OpSub:
		return floatV(lf - rf), nil
	case OpMul:
		return floatV(lf * rf), nil
	case OpDiv:
		if rf == 0 {
			return val{}, in.rtErrf(line, "float division by zero")
		}
		return floatV(lf / rf), nil
	case OpFloorDiv:
		if rf == 0 {
			return val{}, in.rtErrf(line, "float floor division by zero")
		}
		return floatV(math.Floor(lf / rf)), nil
	case OpMod:
		if rf == 0 {
			return val{}, in.rtErrf(line, "float modulo by zero")
		}
		m := math.Mod(lf, rf)
		if m != 0 && (m < 0) != (rf < 0) {
			m += rf
		}
		return floatV(m), nil
	default: // OpPow
		if lf == 0 && rf < 0 {
			return val{}, in.rtErrf(line, "ZeroDivisionError: 0.0 cannot be raised to a negative power")
		}
		return floatV(math.Pow(lf, rf)), nil
	}
}

func clampRepeat(n int64) int {
	if n < 0 {
		return 0
	}
	if n > 1<<20 {
		n = 1 << 20
	}
	return int(n)
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func pyMod(a, b int64) int64 {
	m := a % b
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m
}

func intPow(base, exp int64) int64 {
	result := int64(1)
	for exp > 0 {
		if exp&1 == 1 {
			result *= base
		}
		base *= base
		exp >>= 1
	}
	return result
}

func identical(a, b Value) bool {
	switch a.(type) {
	case NoneVal:
		_, ok := b.(NoneVal)
		return ok
	case *ListVal, *DictVal, *ObjectVal, *FuncVal:
		return a == b // same object
	default:
		return Equal(a, b)
	}
}

func (in *Interp) contains(container, item val, line int) (bool, error) {
	switch c := container.ref.(type) {
	case *ListVal:
		return c.find(item) >= 0, nil
	case *TupleVal:
		for _, it := range c.Items {
			if equalVal(unbox(it), item) {
				return true, nil
			}
		}
		return false, nil
	case StrVal:
		s, ok := item.ref.(StrVal)
		if !ok {
			return false, in.rtErrf(line, "'in <string>' requires string as left operand")
		}
		return strings.Contains(string(c), string(s)), nil
	case *DictVal:
		_, ok, err := c.Get(item.box())
		if err != nil {
			return false, in.rtErrf(line, "%v", err)
		}
		return ok, nil
	case RangeVal:
		i, ok := item.asInt()
		if !ok {
			return false, nil
		}
		if c.Step > 0 {
			return i >= c.Start && i < c.Stop && (i-c.Start)%c.Step == 0, nil
		}
		if c.Step < 0 {
			return i <= c.Start && i > c.Stop && (c.Start-i)%(-c.Step) == 0, nil
		}
		return false, nil
	default:
		return false, in.rtErrf(line, "argument of type '%s' is not iterable", container.typeName())
	}
}

// formatPercent implements the printf-style '%' operator on strings, which
// the paper's Listing 3 uses to inject parameters into loopback SQL.
func (in *Interp) formatPercent(format string, arg Value, line int) (Value, error) {
	var args []Value
	if t, ok := arg.(*TupleVal); ok {
		args = t.Items
	} else {
		args = []Value{arg}
	}
	var sb strings.Builder
	ai := 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			sb.WriteByte(c)
			continue
		}
		if i+1 >= len(format) {
			return nil, in.rtErrf(line, "incomplete format")
		}
		i++
		verb := format[i]
		if verb == '%' {
			sb.WriteByte('%')
			continue
		}
		if ai >= len(args) {
			return nil, in.rtErrf(line, "not enough arguments for format string")
		}
		v := args[ai]
		ai++
		switch verb {
		case 'd', 'i':
			iv, ok := asInt(v)
			if !ok {
				if fv, fok := v.(FloatVal); fok {
					iv = int64(fv)
				} else {
					return nil, in.rtErrf(line, "%%d format: a number is required, not %s", v.TypeName())
				}
			}
			fmt.Fprintf(&sb, "%d", iv)
		case 'f', 'g':
			fv, ok := asFloat(v)
			if !ok {
				return nil, in.rtErrf(line, "%%%c format: a number is required, not %s", verb, v.TypeName())
			}
			fmt.Fprintf(&sb, "%"+string(verb), fv)
		case 's':
			sb.WriteString(Str(v))
		case 'r':
			sb.WriteString(v.Repr())
		default:
			return nil, in.rtErrf(line, "unsupported format character %q", string(verb))
		}
	}
	if ai < len(args) {
		return nil, in.rtErrf(line, "not all arguments converted during string formatting")
	}
	return StrVal(sb.String()), nil
}

// importModule resolves an import against the module shims (stdModule).
func (in *Interp) importModule(name string, line int) (Value, error) {
	if m, ok := in.modules[name]; ok {
		return m, nil
	}
	if m, ok := stdModule(in, name); ok {
		in.modules[name] = m
		return m, nil
	}
	return nil, in.rtErrf(line, "ModuleNotFoundError: no module named '%s'", name)
}

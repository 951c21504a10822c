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
	slots   []Value   // locals by slot, nil while unbound
	outer   *Frame    // defining frame of the running function
	ret     Value     // value of the return statement unwinding this frame
}

// Locals returns the frame's bound local variables by name; for a
// module-level frame these are the module's globals.
func (f *Frame) Locals() map[string]Value {
	if f.scope == nil {
		return f.globals.Snapshot()
	}
	out := make(map[string]Value, len(f.slots))
	for name, i := range f.scope.slot {
		if f.slots[i] != nil {
			out[name] = f.slots[i]
		}
	}
	return out
}

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
	// with the statement's cancellation signal and UDF wall-clock budget,
	// so a cancelled query preempts a long-running interpreted UDF.
	Interrupt func() error
	// Trace, when set, observes line/call/return/exception events.
	Trace TraceFunc
	// ModuleProvider resolves imports beyond the standard shims; the engine
	// injects database-aware modules through it.
	ModuleProvider func(name string) (Value, bool)

	// Globals is the module-level environment of the last Run.
	Globals *Env

	modules map[string]Value
	steps   int64
	frame   *Frame
	// stack holds the arguments of calls in flight, so a call allocates no
	// argument slice; a callee sees its window only until it returns.
	stack []Value
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
	in.Globals = globals
	prev := in.frame
	in.frame = &Frame{FuncName: "<module>", Module: mod, globals: globals}
	defer func() { in.frame = prev }()
	return in.execBlock(mod.Body, in.frame)
}

// NewGlobals creates an empty module scope.
func (in *Interp) NewGlobals() *Env { return &Env{vars: map[string]Value{}} }

// Call invokes a callable value (function or builtin) from Go with
// positional arguments. This is how the engine executes UDFs.
func (in *Interp) Call(fn Value, args []Value) (Value, error) {
	return in.call(fn, args, nil, 0)
}

func (in *Interp) bumpStep(line int) error {
	in.steps++
	if in.MaxSteps > 0 && in.steps > in.MaxSteps {
		return in.rtErrf(line, "step limit exceeded (%d)", in.MaxSteps)
	}
	// Poll the interrupt hook at a stride that keeps the per-step cost to
	// one mask-and-branch; interrupt errors propagate untouched so their
	// typed kind (cancelled, resource) survives to the wire.
	if in.Interrupt != nil && in.steps&1023 == 0 {
		if err := in.Interrupt(); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) execBlock(body []Stmt, f *Frame) error {
	for _, st := range body {
		if err := in.exec(st, f); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) exec(st Stmt, f *Frame) error {
	line := st.Pos()
	f.Line = line
	if err := in.bumpStep(line); err != nil {
		return err
	}
	if in.Trace != nil {
		if err := in.Trace(in, TraceEvent{Kind: TraceLine, Frame: f, Line: line}); err != nil {
			return err
		}
	}
	switch st := st.(type) {
	case *ExprStmt:
		_, err := in.eval(st.X, f)
		return err
	case *AssignStmt:
		v, err := in.eval(st.Value, f)
		if err != nil {
			return err
		}
		return in.assign(st.Target, v, f)
	case *AugAssignStmt:
		cur, err := in.eval(st.Target, f)
		if err != nil {
			return err
		}
		rhs, err := in.eval(st.Value, f)
		if err != nil {
			return err
		}
		v, err := in.binop(st.Op, cur, rhs, st.Pos())
		if err != nil {
			return err
		}
		return in.assign(st.Target, v, f)
	case *ReturnStmt:
		f.ret = None
		if st.Value != nil {
			v, err := in.eval(st.Value, f)
			if err != nil {
				return err
			}
			f.ret = v
		}
		return returnSignal{}
	case *PassStmt:
		return nil
	case *BreakStmt:
		return breakSignal{}
	case *ContinueStmt:
		return continueSignal{}
	case *IfStmt:
		cond, err := in.eval(st.Cond, f)
		if err != nil {
			return err
		}
		if Truthy(cond) {
			return in.execBlock(st.Body, f)
		}
		if st.Else != nil {
			return in.execBlock(st.Else, f)
		}
		return nil
	case *WhileStmt:
		for {
			cond, err := in.eval(st.Cond, f)
			if err != nil {
				return err
			}
			if !Truthy(cond) {
				return nil
			}
			if err := in.execBlock(st.Body, f); err != nil {
				switch err.(type) {
				case breakSignal:
					return nil
				case continueSignal:
					continue
				default:
					return err
				}
			}
			if err := in.bumpStep(st.Pos()); err != nil {
				return err
			}
		}
	case *ForStmt:
		iter, err := in.eval(st.Iter, f)
		if err != nil {
			return err
		}
		return in.forLoop(st, iter, f)
	case *DefStmt:
		in.store(st.bind, &FuncVal{
			Name: st.Name, Params: st.Params, Body: st.Body, scope: st.scope,
			Closure: f.env(), Module: f.Module, DefLine: st.Pos(),
		}, f)
		return nil
	case *ImportStmt:
		mod, err := in.importModule(st.Module, st.Pos())
		if err != nil {
			return err
		}
		in.store(st.bind, mod, f)
		return nil
	case *FromImportStmt:
		mod, err := in.importModule(st.Module, st.Pos())
		if err != nil {
			return err
		}
		obj, ok := mod.(*ObjectVal)
		if !ok {
			return in.rtErrf(st.Pos(), "cannot import names from %s", mod.TypeName())
		}
		for i, pair := range st.Names {
			v, err := in.getAttr(obj, pair[0], st.Pos())
			if err != nil {
				return in.rtErrf(st.Pos(), "cannot import name '%s' from '%s'", pair[0], st.Module)
			}
			in.store(st.binds[i], v, f)
		}
		return nil
	case *GlobalStmt:
		return nil
	case *DelStmt:
		return in.del(st.Target, f)
	case *AssertStmt:
		cond, err := in.eval(st.Cond, f)
		if err != nil {
			return err
		}
		if Truthy(cond) {
			return nil
		}
		msg := "assertion failed"
		if st.Msg != nil {
			mv, err := in.eval(st.Msg, f)
			if err != nil {
				return err
			}
			msg = Str(mv)
		}
		return in.rtErrf(st.Pos(), "AssertionError: %s", msg)
	case *RaiseStmt:
		msg := "exception"
		var val Value = None
		if st.Value != nil {
			v, err := in.eval(st.Value, f)
			if err != nil {
				return err
			}
			val = v
			// `raise Exception("msg")` parses as a call; the Exception
			// builtin returns its argument, so Str(v) is the message.
			msg = Str(v)
		}
		re := in.rtErrf(st.Pos(), "%s", msg)
		re.Value = val
		return re
	case *TryStmt:
		err := in.execBlock(st.Body, f)
		switch err.(type) {
		case nil:
		case breakSignal, continueSignal, returnSignal:
			// control flow passes through finally
		default:
			if st.Handler != nil {
				if in.Trace != nil {
					_ = in.Trace(in, TraceEvent{Kind: TraceException, Frame: f, Line: f.Line, Err: err})
				}
				if st.excBind != nil {
					var bound Value = StrVal(err.Error())
					if re, ok := err.(*RuntimeError); ok {
						bound = StrVal(re.Msg)
					}
					in.store(st.excBind, bound, f)
				}
				err = in.execBlock(st.Handler, f)
			}
		}
		if st.Finally != nil {
			if ferr := in.execBlock(st.Finally, f); ferr != nil {
				return ferr
			}
		}
		return err
	default:
		return in.rtErrf(st.Pos(), "unsupported statement %T", st)
	}
}

func (in *Interp) del(target Expr, f *Frame) error {
	switch t := target.(type) {
	case *Name:
		if t.kind == nameLocal {
			fr := f.up(t.depth)
			if fr.slots[t.idx] == nil {
				return in.rtErrf(t.Pos(), "name '%s' is not defined", t.Ident)
			}
			fr.slots[t.idx] = nil
		} else if _, ok := f.globals.vars[t.Ident]; ok {
			delete(f.globals.vars, t.Ident)
		} else {
			return in.rtErrf(t.Pos(), "name '%s' is not defined", t.Ident)
		}
		return nil
	case *IndexExpr:
		container, err := in.eval(t.X, f)
		if err != nil {
			return err
		}
		idx, err := in.eval(t.Idx, f)
		if err != nil {
			return err
		}
		switch c := container.(type) {
		case *DictVal:
			ok, err := c.Delete(idx)
			if err != nil {
				return in.rtErrf(t.Pos(), "%v", err)
			}
			if !ok {
				return in.rtErrf(t.Pos(), "KeyError: %s", idx.Repr())
			}
			return nil
		case *ListVal:
			i, ok := asInt(idx)
			if !ok {
				return in.rtErrf(t.Pos(), "list indices must be integers")
			}
			n := int64(len(c.Items))
			if i < 0 {
				i += n
			}
			if i < 0 || i >= n {
				return in.rtErrf(t.Pos(), "list index out of range")
			}
			c.Items = append(c.Items[:i], c.Items[i+1:]...)
			return nil
		}
		return in.rtErrf(t.Pos(), "cannot delete from %s", container.TypeName())
	default:
		return in.rtErrf(target.Pos(), "cannot delete this expression")
	}
}

func (in *Interp) assign(target Expr, v Value, f *Frame) error {
	switch t := target.(type) {
	case *Name:
		in.store(t, v, f)
		return nil
	case *SeqLit:
		return in.unpack(t.Elems, v, f, t.Pos())
	case *IndexExpr:
		container, err := in.eval(t.X, f)
		if err != nil {
			return err
		}
		idx, err := in.eval(t.Idx, f)
		if err != nil {
			return err
		}
		switch c := container.(type) {
		case *ListVal:
			i, ok := asInt(idx)
			if !ok {
				return in.rtErrf(t.Pos(), "list indices must be integers, not %s", idx.TypeName())
			}
			n := int64(len(c.Items))
			if i < 0 {
				i += n
			}
			if i < 0 || i >= n {
				return in.rtErrf(t.Pos(), "list assignment index out of range")
			}
			c.Items[i] = v
			return nil
		case *DictVal:
			if err := c.Set(idx, v); err != nil {
				return in.rtErrf(t.Pos(), "%v", err)
			}
			return nil
		default:
			return in.rtErrf(t.Pos(), "'%s' object does not support item assignment", container.TypeName())
		}
	case *AttrExpr:
		obj, err := in.eval(t.X, f)
		if err != nil {
			return err
		}
		o, ok := obj.(*ObjectVal)
		if !ok {
			return in.rtErrf(t.Pos(), "cannot set attribute on '%s'", obj.TypeName())
		}
		o.Attrs.SetStr(t.Name, v)
		return nil
	default:
		return in.rtErrf(target.Pos(), "cannot assign to this expression")
	}
}

func (in *Interp) unpack(targets []Expr, v Value, f *Frame, line int) error {
	var items []Value
	switch v := v.(type) {
	case *TupleVal:
		items = v.Items
	case *ListVal:
		items = v.Items
	case *DictVal:
		// Deviation from CPython (which unpacks keys): unpacking a dict
		// yields its values in insertion order, so the paper's Listing 3
		// idiom `(tdata, tlabels) = _conn.execute("SELECT data, labels...")`
		// binds the two result columns directly.
		items = v.Values()
	default:
		return in.rtErrf(line, "cannot unpack non-sequence %s", v.TypeName())
	}
	if len(items) != len(targets) {
		return in.rtErrf(line, "cannot unpack %d values into %d targets", len(items), len(targets))
	}
	for i, t := range targets {
		if err := in.assign(t, items[i], f); err != nil {
			return err
		}
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
func (in *Interp) load(n *Name, f *Frame) (Value, error) {
	switch n.kind {
	case nameLocal:
		if v := f.up(n.depth).slots[n.idx]; v != nil {
			return v, nil
		}
		if n.depth == 0 {
			return nil, in.rtErrf(n.Pos(), "local variable '%s' referenced before assignment", n.Ident)
		}
		// An unbound local of an enclosing function — for a watch, of the
		// paused frame — reads through to module scope, as eval() in that
		// frame would.
	case nameBuiltin:
		if f.globals.shadowed {
			if v, ok := f.globals.vars[n.Ident]; ok {
				return v, nil
			}
		}
		return builtinTable[n.idx], nil
	}
	if v, ok := f.globals.vars[n.Ident]; ok {
		return v, nil
	}
	return nil, in.rtErrf(n.Pos(), "name '%s' is not defined", n.Ident)
}

// store binds a resolved name: a function only ever writes its own slots,
// anything else is module scope.
func (in *Interp) store(n *Name, v Value, f *Frame) {
	if n.kind == nameLocal {
		f.slots[n.idx] = v
		return
	}
	if n.kind == nameBuiltin {
		f.globals.shadowed = true
	}
	f.globals.vars[n.Ident] = v
}

// seq walks an iterable: a range — what a UDF loops over — is counted
// through without being built, anything else is walked as its items.
type seq struct {
	items []Value // nil for a range
	r     RangeVal
	k, n  int64
}

func (in *Interp) seq(v Value, line int) (seq, error) {
	if r, ok := v.(RangeVal); ok && r.Step != 0 {
		return seq{r: r, n: r.Len()}, nil
	}
	items, err := in.items(v, line)
	return seq{items: items, n: int64(len(items))}, err
}

func (s *seq) next() (Value, bool) {
	if s.k >= s.n {
		return nil, false
	}
	s.k++
	if s.items != nil {
		return s.items[s.k-1], true
	}
	return IntVal(s.r.Start + (s.k-1)*s.r.Step), true
}

func (in *Interp) forLoop(st *ForStmt, iter Value, f *Frame) error {
	s, err := in.seq(iter, st.Pos())
	for item, ok := s.next(); ok; item, ok = s.next() {
		if stop, err := in.forBody(st, item, f); stop || err != nil {
			return err
		}
	}
	return err
}

// forBody runs one iteration; stop reports a break.
func (in *Interp) forBody(st *ForStmt, item Value, f *Frame) (stop bool, err error) {
	if err := in.assign(st.Target, item, f); err != nil {
		return false, err
	}
	if err := in.execBlock(st.Body, f); err != nil {
		switch err.(type) {
		case breakSignal:
			return true, nil
		case continueSignal:
			return false, nil
		default:
			return false, err
		}
	}
	return false, in.bumpStep(st.Pos())
}

// items returns the elements any iterable value yields, in a slice the
// caller must not modify (a list's or tuple's is its own).
func (in *Interp) items(v Value, line int) ([]Value, error) {
	switch v := v.(type) {
	case *ListVal:
		return v.Items, nil
	case *TupleVal:
		return v.Items, nil
	case RangeVal:
		if v.Step == 0 {
			return nil, in.rtErrf(line, "range() step must not be zero")
		}
		if v.Len() > 1<<26 { // loops count through a range; only list(range(...)) and the like get here
			return nil, in.rtErrf(line, "range of %d elements is too large to materialize", v.Len())
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

func (in *Interp) eval(e Expr, f *Frame) (Value, error) {
	switch e := e.(type) {
	case *Lit:
		return e.Value, nil
	case *Name:
		// A bound local of this frame, without the call into load: measured
		// at 5 % of py_agg_p50_ms and 6 % of cycle_traditional_p50_ms.
		if e.kind == nameLocal && e.depth == 0 {
			if v := f.slots[e.idx]; v != nil {
				return v, nil
			}
		}
		return in.load(e, f)
	case *SeqLit:
		items := make([]Value, len(e.Elems))
		for i, el := range e.Elems {
			v, err := in.eval(el, f)
			if err != nil {
				return nil, err
			}
			items[i] = v
		}
		if e.Tuple {
			return &TupleVal{Items: items}, nil
		}
		return &ListVal{Items: items}, nil
	case *DictLit:
		d := NewDict()
		for i := range e.Keys {
			k, err := in.eval(e.Keys[i], f)
			if err != nil {
				return nil, err
			}
			v, err := in.eval(e.Values[i], f)
			if err != nil {
				return nil, err
			}
			if err := d.Set(k, v); err != nil {
				return nil, in.rtErrf(e.Pos(), "%v", err)
			}
		}
		return d, nil
	case *UnaryExpr:
		x, err := in.eval(e.X, f)
		if err != nil {
			return nil, err
		}
		return in.unop(e.Op, x, e.Pos())
	case *BinExpr:
		l, err := in.eval(e.L, f)
		if err != nil {
			return nil, err
		}
		// and/or short-circuit
		if (e.Op == OpAnd && !Truthy(l)) || (e.Op == OpOr && Truthy(l)) {
			return l, nil
		}
		r, err := in.eval(e.R, f)
		if err != nil || e.Op >= OpAnd {
			return r, err
		}
		return in.binop(e.Op, l, r, e.Pos())
	case *CondExpr:
		c, err := in.eval(e.Cond, f)
		if err != nil {
			return nil, err
		}
		if Truthy(c) {
			return in.eval(e.Then, f)
		}
		return in.eval(e.Else, f)
	case *CallExpr:
		return in.evalCall(e, f)
	case *IndexExpr:
		x, err := in.eval(e.X, f)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(e.Idx, f)
		if err != nil {
			return nil, err
		}
		if l, ok := x.(*ListVal); ok { // column[i]
			if i, ok := idx.(IntVal); ok && uint64(i) < uint64(len(l.Items)) {
				return l.Items[i], nil
			}
		}
		return in.index(x, idx, e.Pos())
	case *SliceExpr:
		x, err := in.eval(e.X, f)
		if err != nil {
			return nil, err
		}
		var lo, hi Value = None, None
		if e.Lo != nil {
			if lo, err = in.eval(e.Lo, f); err != nil {
				return nil, err
			}
		}
		if e.Hi != nil {
			if hi, err = in.eval(e.Hi, f); err != nil {
				return nil, err
			}
		}
		return in.slice(x, lo, hi, e.Pos())
	case *AttrExpr:
		x, err := in.eval(e.X, f)
		if err != nil {
			return nil, err
		}
		return in.getAttr(x, e.Name, e.Pos())
	case *LambdaExpr:
		return &FuncVal{
			Name: "", Params: e.Params, Expr: e.Body, scope: e.scope,
			Closure: f.env(), Module: f.Module, DefLine: e.Pos(),
		}, nil
	case *CompExpr:
		iter, err := in.eval(e.Iter, f)
		if err != nil {
			return nil, err
		}
		s, err := in.seq(iter, e.Pos())
		if err != nil {
			return nil, err
		}
		out := &ListVal{}
		for item, ok := s.next(); ok; item, ok = s.next() {
			if err := in.assign(e.Target, item, f); err != nil {
				return nil, err
			}
			if e.Cond != nil {
				cond, err := in.eval(e.Cond, f)
				if err != nil {
					return nil, err
				}
				if !Truthy(cond) {
					continue
				}
			}
			v, err := in.eval(e.Elem, f)
			if err != nil {
				return nil, err
			}
			out.Items = append(out.Items, v)
			if err := in.bumpStep(e.Pos()); err != nil {
				return nil, err
			}
		}
		return out, nil
	default:
		return nil, in.rtErrf(e.Pos(), "unsupported expression %T", e)
	}
}

// evalArgs evaluates a call's arguments onto the argument stack and returns
// where its window starts; the caller releases it with popArgs.
func (in *Interp) evalArgs(e *CallExpr, f *Frame) (base int, kwargs map[string]Value, err error) {
	base = len(in.stack)
	for _, a := range e.Args {
		v, err := in.eval(a, f)
		if err != nil {
			in.popArgs(base)
			return base, nil, err
		}
		in.stack = append(in.stack, v)
	}
	if len(e.KwName) > 0 {
		kwargs = make(map[string]Value, len(e.KwName))
		for i, n := range e.KwName {
			if kwargs[n], err = in.eval(e.KwVal[i], f); err != nil {
				in.popArgs(base)
				return base, nil, err
			}
		}
	}
	return base, kwargs, nil
}

// args is the argument window starting at base, capped so that a callee
// appending to it cannot write into the stack.
func (in *Interp) args(base int) []Value { return in.stack[base:len(in.stack):len(in.stack)] }

// popArgs releases a window, dropping its references: the stack outlives
// the call by as long as the interpreter does.
func (in *Interp) popArgs(base int) {
	for i := base; i < len(in.stack); i++ { // windows are an element or two: cheaper than clear's bulk barrier
		in.stack[i] = nil
	}
	in.stack = in.stack[:base]
}

// evalCall evaluates a call. x.name(...) on a list, dict or str goes
// straight to the method's Go function: no bound-method value is built.
func (in *Interp) evalCall(e *CallExpr, f *Frame) (Value, error) {
	var recv, fn Value
	var m method
	var typ string
	var err error
	at, isAttr := e.Fn.(*AttrExpr)
	if !isAttr {
		fn, err = in.eval(e.Fn, f)
	} else if recv, err = in.eval(at.X, f); err == nil {
		if m, typ = builtinMethod(recv, at.Name); m.fn == nil {
			fn, err = in.getAttr(recv, at.Name, at.Pos())
		}
	}
	if err != nil {
		return nil, err
	}
	base, kwargs, err := in.evalArgs(e, f)
	if err != nil {
		return nil, err
	}
	var v Value
	if m.fn != nil {
		v, err = m.call(in, at.Name, recv, in.args(base), kwargs)
		v, err = in.builtinResult(v, err, typ, at.Name, e.Pos())
	} else {
		v, err = in.call(fn, in.args(base), kwargs, e.Pos())
	}
	in.popArgs(base)
	return v, err
}

// builtinResult shapes what a Go-implemented callable returned: nil means
// None, and a plain Go error becomes a script error naming the callable.
func (in *Interp) builtinResult(v Value, err error, typ, name string, line int) (Value, error) {
	if err != nil {
		if _, ok := err.(*RuntimeError); ok {
			return nil, err
		}
		if typ != "" {
			name = typ + "." + name
		}
		return nil, in.rtErrf(line, "%s: %v", name, errMsg(err))
	}
	if v == nil {
		v = None
	}
	return v, nil
}

// call dispatches on callable kind. args is only valid during the call.
func (in *Interp) call(fn Value, args []Value, kwargs map[string]Value, line int) (Value, error) {
	switch fn := fn.(type) {
	case *BuiltinVal:
		v, err := fn.Fn(in, args, kwargs)
		return in.builtinResult(v, err, "", fn.Name, line)
	case *FuncVal:
		return in.callFunc(fn, args, kwargs, line)
	default:
		return nil, in.rtErrf(line, "'%s' object is not callable", fn.TypeName())
	}
}

// errMsg strips the core error prefix for nicer script-level messages.
func errMsg(err error) string {
	if ce, ok := err.(*core.Error); ok {
		return ce.Msg
	}
	return err.Error()
}

const maxCallDepth = 200

func (in *Interp) callFunc(fn *FuncVal, args []Value, kwargs map[string]Value, line int) (Value, error) {
	caller := in.frame
	depth := 0
	if caller != nil {
		depth = caller.Depth + 1
	}
	if depth > maxCallDepth {
		return nil, in.rtErrf(line, "maximum recursion depth exceeded")
	}
	if len(args) > len(fn.Params) {
		return nil, in.rtErrf(line, "%s() takes %d arguments but %d were given",
			displayName(fn), len(fn.Params), len(args))
	}
	frame := &Frame{
		FuncName: displayName(fn), Module: fn.Module, Line: fn.DefLine, Caller: caller, Depth: depth,
		globals: fn.Closure.globals, scope: fn.scope, slots: make([]Value, fn.scope.nslots), outer: fn.Closure,
	}
	// Parameters are the first slots; a nil slot is an unbound one.
	copy(frame.slots, args)
	for name, v := range kwargs {
		i := 0
		for i < len(fn.Params) && fn.Params[i].Name != name {
			i++
		}
		if i == len(fn.Params) {
			return nil, in.rtErrf(line, "%s() got an unexpected keyword argument '%s'", displayName(fn), name)
		}
		if frame.slots[i] != nil {
			return nil, in.rtErrf(line, "%s() got multiple values for argument '%s'", displayName(fn), name)
		}
		frame.slots[i] = v
	}
	for i, p := range fn.Params {
		if frame.slots[i] != nil {
			continue
		}
		if p.Default == nil {
			return nil, in.rtErrf(line, "%s() missing required argument: '%s'", displayName(fn), p.Name)
		}
		// Defaults are evaluated per call, in the defining scope.
		dframe := *fn.Closure
		dframe.FuncName, dframe.Module, dframe.Line, dframe.Caller, dframe.Depth =
			frame.FuncName, fn.Module, fn.DefLine, caller, depth
		in.frame = &dframe
		dv, err := in.eval(p.Default, &dframe)
		in.frame = caller
		if err != nil {
			return nil, err
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
func (in *Interp) runFrame(fn *FuncVal, frame *Frame) (Value, error) {
	if in.Trace != nil {
		if err := in.Trace(in, TraceEvent{Kind: TraceCall, Frame: frame, Line: fn.DefLine}); err != nil {
			return nil, err
		}
	}
	var result Value = None
	var err error
	if fn.Expr != nil { // lambda
		result, err = in.eval(fn.Expr, frame)
	} else {
		err = in.execBlock(fn.Body, frame)
		if _, ok := err.(returnSignal); ok {
			result, err = frame.ret, nil
		}
	}
	if err != nil {
		if in.Trace != nil {
			_ = in.Trace(in, TraceEvent{Kind: TraceException, Frame: frame, Line: frame.Line, Err: err})
		}
		return nil, err
	}
	if in.Trace != nil {
		if terr := in.Trace(in, TraceEvent{Kind: TraceReturn, Frame: frame, Line: frame.Line}); terr != nil {
			return nil, terr
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

func (in *Interp) index(x, idx Value, line int) (Value, error) {
	switch x := x.(type) {
	case *ListVal, *TupleVal:
		items, _ := in.items(x, line)
		i, ok := asInt(idx)
		if !ok {
			return nil, in.rtErrf(line, "%s indices must be integers, not %s", x.TypeName(), idx.TypeName())
		}
		n := int64(len(items))
		if i < 0 {
			i += n
		}
		if i < 0 || i >= n {
			return nil, in.rtErrf(line, "%s index out of range", x.TypeName())
		}
		return items[i], nil
	case StrVal:
		i, ok := asInt(idx)
		if !ok {
			return nil, in.rtErrf(line, "string indices must be integers")
		}
		runes := []rune(string(x))
		n := int64(len(runes))
		if i < 0 {
			i += n
		}
		if i < 0 || i >= n {
			return nil, in.rtErrf(line, "string index out of range")
		}
		return StrVal(string(runes[i])), nil
	case *DictVal:
		v, ok, err := x.Get(idx)
		if err != nil {
			return nil, in.rtErrf(line, "%v", err)
		}
		if !ok {
			return nil, in.rtErrf(line, "KeyError: %s", idx.Repr())
		}
		return v, nil
	case RangeVal:
		i, ok := asInt(idx)
		if !ok {
			return nil, in.rtErrf(line, "range indices must be integers")
		}
		n := x.Len()
		if i < 0 {
			i += n
		}
		if i < 0 || i >= n {
			return nil, in.rtErrf(line, "range index out of range")
		}
		return IntVal(x.Start + i*x.Step), nil
	default:
		return nil, in.rtErrf(line, "'%s' object is not subscriptable", x.TypeName())
	}
}

func (in *Interp) slice(x, lo, hi Value, line int) (Value, error) {
	var items []Value
	var runes []rune
	switch x := x.(type) {
	case *ListVal:
		items = x.Items
	case *TupleVal:
		items = x.Items
	case StrVal:
		runes = []rune(string(x))
	default:
		return nil, in.rtErrf(line, "'%s' object is not sliceable", x.TypeName())
	}
	n := int64(len(items) + len(runes))
	// bound clamps a slice bound to [0,n]; None means def.
	bound := func(v Value, def int64) (int64, error) {
		if _, isNone := v.(NoneVal); isNone {
			return def, nil
		}
		i, ok := asInt(v)
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
		return nil, err
	}
	stop, err := bound(hi, n)
	if err != nil {
		return nil, err
	}
	stop = max(stop, start)
	switch x.(type) {
	case *ListVal:
		return &ListVal{Items: append([]Value{}, items[start:stop]...)}, nil
	case *TupleVal:
		return &TupleVal{Items: append([]Value{}, items[start:stop]...)}, nil
	}
	return StrVal(string(runes[start:stop])), nil
}

func (in *Interp) unop(op Op, x Value, line int) (Value, error) {
	if op == OpNot {
		return BoolVal(!Truthy(x)), nil
	}
	if f, ok := x.(FloatVal); ok {
		return -f, nil
	}
	if i, ok := asInt(x); ok { // bools negate as ints
		return IntVal(-i), nil
	}
	return nil, in.rtErrf(line, "bad operand type for unary -: '%s'", x.TypeName())
}

func (in *Interp) binop(op Op, l, r Value, line int) (Value, error) {
	// int and float arithmetic first: it is what UDF loops spend their time on
	if op <= OpPow {
		switch lv := l.(type) {
		case IntVal:
			switch rv := r.(type) {
			case IntVal:
				return in.intArith(op, int64(lv), int64(rv), line)
			case FloatVal:
				return in.floatArith(op, float64(lv), float64(rv), line)
			}
		case FloatVal:
			switch rv := r.(type) {
			case IntVal:
				return in.floatArith(op, float64(lv), float64(rv), line)
			case FloatVal:
				return in.floatArith(op, float64(lv), float64(rv), line)
			}
		}
	}
	switch op {
	case OpEq:
		return BoolVal(Equal(l, r)), nil
	case OpNe:
		return BoolVal(!Equal(l, r)), nil
	case OpLt, OpLe, OpGt, OpGe:
		c, err := Compare(l, r)
		if err != nil {
			return nil, in.rtErrf(line, "%v", err)
		}
		return BoolVal((op == OpLt && c < 0) || (op == OpLe && c <= 0) || (op == OpGt && c > 0) || (op == OpGe && c >= 0)), nil
	case OpIs:
		return BoolVal(identical(l, r)), nil
	case OpIsNot:
		return BoolVal(!identical(l, r)), nil
	case OpIn, OpNotIn:
		found, err := in.contains(r, l, line)
		if err != nil {
			return nil, err
		}
		return BoolVal(found != (op == OpNotIn)), nil
	}

	// string/list algebra
	switch lv := l.(type) {
	case StrVal:
		switch op {
		case OpAdd:
			if rv, ok := r.(StrVal); ok {
				return lv + rv, nil
			}
		case OpMul:
			if n, ok := asInt(r); ok {
				return StrVal(strings.Repeat(string(lv), clampRepeat(n))), nil
			}
		case OpMod:
			return in.formatPercent(string(lv), r, line)
		}
	case *ListVal:
		switch op {
		case OpAdd:
			if rv, ok := r.(*ListVal); ok {
				return &ListVal{Items: slices.Concat(lv.Items, rv.Items)}, nil
			}
		case OpMul:
			if n, ok := asInt(r); ok {
				cnt := clampRepeat(n)
				out := make([]Value, 0, len(lv.Items)*cnt)
				for i := 0; i < cnt; i++ {
					out = append(out, lv.Items...)
				}
				return &ListVal{Items: out}, nil
			}
		}
	case *TupleVal:
		if rv, ok := r.(*TupleVal); ok && op == OpAdd {
			return &TupleVal{Items: slices.Concat(lv.Items, rv.Items)}, nil
		}
	}

	// numeric tower, bools included
	li, lIsInt := asInt(l)
	ri, rIsInt := asInt(r)
	if lIsInt && rIsInt {
		return in.intArith(op, li, ri, line)
	}
	lf, lok := asFloat(l)
	rf, rok := asFloat(r)
	if lok && rok {
		return in.floatArith(op, lf, rf, line)
	}
	return nil, in.rtErrf(line, "unsupported operand type(s) for %s: '%s' and '%s'",
		op, l.TypeName(), r.TypeName())
}

func (in *Interp) intArith(op Op, li, ri int64, line int) (Value, error) {
	switch op {
	case OpAdd:
		return IntVal(li + ri), nil
	case OpSub:
		return IntVal(li - ri), nil
	case OpMul:
		return IntVal(li * ri), nil
	case OpDiv:
		if ri == 0 {
			return nil, in.rtErrf(line, "division by zero")
		}
		return FloatVal(float64(li) / float64(ri)), nil
	case OpFloorDiv, OpMod:
		if ri == 0 {
			return nil, in.rtErrf(line, "integer division or modulo by zero")
		}
		if op == OpMod {
			return IntVal(pyMod(li, ri)), nil
		}
		return IntVal(floorDiv(li, ri)), nil
	default: // OpPow
		if ri < 0 {
			return FloatVal(math.Pow(float64(li), float64(ri))), nil
		}
		return IntVal(intPow(li, ri)), nil
	}
}

func (in *Interp) floatArith(op Op, lf, rf float64, line int) (Value, error) {
	switch op {
	case OpAdd:
		return FloatVal(lf + rf), nil
	case OpSub:
		return FloatVal(lf - rf), nil
	case OpMul:
		return FloatVal(lf * rf), nil
	case OpDiv:
		if rf == 0 {
			return nil, in.rtErrf(line, "float division by zero")
		}
		return FloatVal(lf / rf), nil
	case OpFloorDiv:
		if rf == 0 {
			return nil, in.rtErrf(line, "float floor division by zero")
		}
		return FloatVal(math.Floor(lf / rf)), nil
	case OpMod:
		if rf == 0 {
			return nil, in.rtErrf(line, "float modulo by zero")
		}
		m := math.Mod(lf, rf)
		if m != 0 && (m < 0) != (rf < 0) {
			m += rf
		}
		return FloatVal(m), nil
	default: // OpPow
		return FloatVal(math.Pow(lf, rf)), nil
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

func (in *Interp) contains(container, item Value, line int) (bool, error) {
	switch c := container.(type) {
	case *ListVal, *TupleVal:
		items, _ := in.items(c, line)
		for _, it := range items {
			if Equal(it, item) {
				return true, nil
			}
		}
		return false, nil
	case StrVal:
		s, ok := item.(StrVal)
		if !ok {
			return false, in.rtErrf(line, "'in <string>' requires string as left operand")
		}
		return strings.Contains(string(c), string(s)), nil
	case *DictVal:
		_, ok, err := c.Get(item)
		if err != nil {
			return false, in.rtErrf(line, "%v", err)
		}
		return ok, nil
	case RangeVal:
		i, ok := asInt(item)
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
		return false, in.rtErrf(line, "argument of type '%s' is not iterable", container.TypeName())
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

// importModule resolves standard shims first, then the provider hook.
func (in *Interp) importModule(name string, line int) (Value, error) {
	if m, ok := in.modules[name]; ok {
		return m, nil
	}
	if m, ok := stdModule(in, name); ok {
		in.modules[name] = m
		return m, nil
	}
	if in.ModuleProvider != nil {
		if m, ok := in.ModuleProvider(name); ok {
			in.modules[name] = m
			return m, nil
		}
	}
	return nil, in.rtErrf(line, "ModuleNotFoundError: no module named '%s'", name)
}

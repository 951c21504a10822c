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
		cur, err := in.operand(st.Target, f)
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
		f.ret = noneV
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
		if cond.truthy() {
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
			if !cond.truthy() {
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
		return in.forLoop(st, iter.box(), f)
	case *DefStmt:
		in.store(st.bind, val{ref: &FuncVal{
			Name: st.Name, Params: st.Params, Body: st.Body, scope: st.scope,
			Closure: f.env(), Module: f.Module, DefLine: st.Pos(),
		}}, f)
		return nil
	case *ImportStmt:
		mod, err := in.importModule(st.Module, st.Pos())
		if err != nil {
			return err
		}
		in.store(st.bind, unbox(mod), f)
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
			in.store(st.binds[i], unbox(v), f)
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
		if cond.truthy() {
			return nil
		}
		msg := "assertion failed"
		if st.Msg != nil {
			mv, err := in.eval(st.Msg, f)
			if err != nil {
				return err
			}
			msg = Str(mv.box())
		}
		return in.rtErrf(st.Pos(), "AssertionError: %s", msg)
	case *RaiseStmt:
		msg := "exception"
		var raised Value = None
		if st.Value != nil {
			v, err := in.eval(st.Value, f)
			if err != nil {
				return err
			}
			raised = v.box()
			// `raise Exception("msg")` parses as a call; the Exception
			// builtin returns its argument, so Str(v) is the message.
			msg = Str(raised)
		}
		re := in.rtErrf(st.Pos(), "%s", msg)
		re.Value = raised
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
					in.store(st.excBind, val{ref: bound}, f)
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
			if !fr.slots[t.idx].bound() {
				return in.rtErrf(t.Pos(), "name '%s' is not defined", t.Ident)
			}
			fr.slots[t.idx] = val{}
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
		switch c := container.ref.(type) {
		case *DictVal:
			ok, err := c.Delete(idx.box())
			if err != nil {
				return in.rtErrf(t.Pos(), "%v", err)
			}
			if !ok {
				return in.rtErrf(t.Pos(), "KeyError: %s", idx.box().Repr())
			}
			return nil
		case *ListVal:
			i, ok := idx.asInt()
			if !ok {
				return in.rtErrf(t.Pos(), "list indices must be integers")
			}
			n := int64(c.Len())
			if i < 0 {
				i += n
			}
			if i < 0 || i >= n {
				return in.rtErrf(t.Pos(), "list index out of range")
			}
			c.Items = slices.Delete(c.Boxed(), int(i), int(i)+1)
			return nil
		}
		return in.rtErrf(t.Pos(), "cannot delete from %s", container.typeName())
	default:
		return in.rtErrf(target.Pos(), "cannot delete this expression")
	}
}

func (in *Interp) assign(target Expr, v val, f *Frame) error {
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
		switch c := container.ref.(type) {
		case *ListVal:
			i, ok := idx.asInt()
			if !ok {
				return in.rtErrf(t.Pos(), "list indices must be integers, not %s", idx.typeName())
			}
			n := int64(c.Len())
			if i < 0 {
				i += n
			}
			if i < 0 || i >= n {
				return in.rtErrf(t.Pos(), "list assignment index out of range")
			}
			c.set(int(i), v)
			return nil
		case *DictVal:
			if err := c.Set(idx.box(), v.box()); err != nil {
				return in.rtErrf(t.Pos(), "%v", err)
			}
			return nil
		default:
			return in.rtErrf(t.Pos(), "'%s' object does not support item assignment", container.typeName())
		}
	case *AttrExpr:
		obj, err := in.eval(t.X, f)
		if err != nil {
			return err
		}
		o, ok := obj.ref.(*ObjectVal)
		if !ok {
			return in.rtErrf(t.Pos(), "cannot set attribute on '%s'", obj.typeName())
		}
		o.Attrs.SetStr(t.Name, v.box())
		return nil
	default:
		return in.rtErrf(target.Pos(), "cannot assign to this expression")
	}
}

func (in *Interp) unpack(targets []Expr, v val, f *Frame, line int) error {
	var items []Value
	switch c := v.ref.(type) {
	case *TupleVal:
		items = c.Items
	case *ListVal:
		items = c.Boxed()
	case *DictVal:
		// Deviation from CPython (which unpacks keys): unpacking a dict
		// yields its values in insertion order, so the paper's Listing 3
		// idiom `(tdata, tlabels) = _conn.execute("SELECT data, labels...")`
		// binds the two result columns directly.
		items = c.Values()
	default:
		return in.rtErrf(line, "cannot unpack non-sequence %s", v.typeName())
	}
	if len(items) != len(targets) {
		return in.rtErrf(line, "cannot unpack %d values into %d targets", len(items), len(targets))
	}
	for i, t := range targets {
		if err := in.assign(t, unbox(items[i]), f); err != nil {
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
// lane holds it, so neither boxes anything; the rest are walked as their
// items.
type seq struct {
	list  *ListVal
	items []Value  // when list is nil
	r     RangeVal // when items is too
	k, n  int64
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
	return seq{items: items, n: int64(len(items))}, err
}

func (s *seq) next() (val, bool) {
	if s.k >= s.n {
		return val{}, false
	}
	s.k++
	switch {
	case s.list != nil:
		// The loop sees writes to the list but not its growth, and ends
		// early if the list shrinks under it.
		if s.k > int64(s.list.Len()) {
			return val{}, false
		}
		return s.list.at(int(s.k - 1)), true
	case s.items != nil:
		return unbox(s.items[s.k-1]), true
	}
	return intV(s.r.Start + (s.k-1)*s.r.Step), true
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
func (in *Interp) forBody(st *ForStmt, item val, f *Frame) (stop bool, err error) {
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
			return nil, in.rtErrf(line, "%s", errMsg(err))
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

// operand is eval with the commonest case first: a bound local of this
// frame is read without going through eval's type switch, measured at 5 % of
// py_agg_p50_ms. The operands of arithmetic, indexing and calls come through
// here.
func (in *Interp) operand(e Expr, f *Frame) (val, error) {
	if n, ok := e.(*Name); ok && n.kind == nameLocal && n.depth == 0 {
		if v := f.slots[n.idx]; v.bound() {
			return v, nil
		}
	}
	return in.eval(e, f)
}

func (in *Interp) eval(e Expr, f *Frame) (val, error) {
	switch e := e.(type) {
	case *Lit:
		return unbox(e.Value), nil
	case *Name:
		return in.load(e, f)
	case *SeqLit:
		if !e.Tuple {
			out := &ListVal{}
			for _, el := range e.Elems {
				v, err := in.eval(el, f)
				if err != nil {
					return val{}, err
				}
				out.push(v)
			}
			return val{ref: out}, nil
		}
		items := make([]Value, len(e.Elems))
		for i, el := range e.Elems {
			v, err := in.eval(el, f)
			if err != nil {
				return val{}, err
			}
			items[i] = v.box()
		}
		return val{ref: &TupleVal{Items: items}}, nil
	case *DictLit:
		d := NewDict()
		for i := range e.Keys {
			k, err := in.eval(e.Keys[i], f)
			if err != nil {
				return val{}, err
			}
			v, err := in.eval(e.Values[i], f)
			if err != nil {
				return val{}, err
			}
			if err := d.Set(k.box(), v.box()); err != nil {
				return val{}, in.rtErrf(e.Pos(), "%v", err)
			}
		}
		return val{ref: d}, nil
	case *UnaryExpr:
		x, err := in.eval(e.X, f)
		if err != nil {
			return val{}, err
		}
		return in.unop(e.Op, x, e.Pos())
	case *BinExpr:
		l, err := in.operand(e.L, f)
		if err != nil {
			return val{}, err
		}
		// and/or short-circuit
		if (e.Op == OpAnd && !l.truthy()) || (e.Op == OpOr && l.truthy()) {
			return l, nil
		}
		r, err := in.operand(e.R, f)
		if err != nil || e.Op >= OpAnd {
			return r, err
		}
		return in.binop(e.Op, l, r, e.Pos())
	case *CondExpr:
		c, err := in.eval(e.Cond, f)
		if err != nil {
			return val{}, err
		}
		if c.truthy() {
			return in.eval(e.Then, f)
		}
		return in.eval(e.Else, f)
	case *CallExpr:
		return in.evalCall(e, f)
	case *IndexExpr:
		x, err := in.operand(e.X, f)
		if err != nil {
			return val{}, err
		}
		idx, err := in.operand(e.Idx, f)
		if err != nil {
			return val{}, err
		}
		if l, ok := x.ref.(*ListVal); ok && idx.kind == kInt && idx.bits < uint64(l.Len()) { // column[i]
			return l.at(int(idx.bits)), nil
		}
		return in.index(x, idx, e.Pos())
	case *SliceExpr:
		x, err := in.eval(e.X, f)
		if err != nil {
			return val{}, err
		}
		lo, hi := noneV, noneV
		if e.Lo != nil {
			if lo, err = in.eval(e.Lo, f); err != nil {
				return val{}, err
			}
		}
		if e.Hi != nil {
			if hi, err = in.eval(e.Hi, f); err != nil {
				return val{}, err
			}
		}
		return in.slice(x, lo, hi, e.Pos())
	case *AttrExpr:
		x, err := in.eval(e.X, f)
		if err != nil {
			return val{}, err
		}
		v, err := in.getAttr(x.box(), e.Name, e.Pos())
		return unbox(v), err
	case *LambdaExpr:
		return val{ref: &FuncVal{
			Name: "", Params: e.Params, Expr: e.Body, scope: e.scope,
			Closure: f.env(), Module: f.Module, DefLine: e.Pos(),
		}}, nil
	case *CompExpr:
		iter, err := in.eval(e.Iter, f)
		if err != nil {
			return val{}, err
		}
		s, err := in.seq(iter.box(), e.Pos())
		if err != nil {
			return val{}, err
		}
		out := &ListVal{}
		for item, ok := s.next(); ok; item, ok = s.next() {
			if err := in.assign(e.Target, item, f); err != nil {
				return val{}, err
			}
			if e.Cond != nil {
				cond, err := in.eval(e.Cond, f)
				if err != nil {
					return val{}, err
				}
				if !cond.truthy() {
					continue
				}
			}
			v, err := in.eval(e.Elem, f)
			if err != nil {
				return val{}, err
			}
			out.push(v)
			if err := in.bumpStep(e.Pos()); err != nil {
				return val{}, err
			}
		}
		return val{ref: out}, nil
	default:
		return val{}, in.rtErrf(e.Pos(), "unsupported expression %T", e)
	}
}

// evalArgs evaluates a call's arguments onto the argument stack and returns
// where its window starts; the caller releases it with popArgs.
func (in *Interp) evalArgs(e *CallExpr, f *Frame) (base int, kwargs map[string]Value, err error) {
	base = len(in.stack)
	for _, a := range e.Args {
		v, err := in.operand(a, f)
		if err != nil {
			in.popArgs(base)
			return base, nil, err
		}
		in.stack = append(in.stack, v)
	}
	if len(e.KwName) > 0 {
		kwargs = make(map[string]Value, len(e.KwName))
		for i, n := range e.KwName {
			v, err := in.eval(e.KwVal[i], f)
			if err != nil {
				in.popArgs(base)
				return base, nil, err
			}
			kwargs[n] = v.box()
		}
	}
	return base, kwargs, nil
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

// evalCall evaluates a call. x.name(...) on a list, dict or str goes
// straight to the method's Go function: no bound-method value is built.
func (in *Interp) evalCall(e *CallExpr, f *Frame) (val, error) {
	var recv, fn val
	var m method
	var typ string
	var err error
	at, isAttr := e.Fn.(*AttrExpr)
	if !isAttr {
		fn, err = in.eval(e.Fn, f)
	} else if recv, err = in.operand(at.X, f); err == nil {
		if l, ok := recv.ref.(*ListVal); ok && at.Name == "append" && len(e.Args) == 1 && len(e.KwName) == 0 {
			// out.append(v * v): the number goes from the lane into out's
			v, err := in.operand(e.Args[0], f)
			if err == nil {
				l.push(v)
			}
			return noneV, err
		}
		if m, typ = builtinMethod(recv.ref, at.Name); m.fn == nil {
			var attr Value
			attr, err = in.getAttr(recv.box(), at.Name, at.Pos())
			fn = unbox(attr)
		}
	}
	if err != nil {
		return val{}, err
	}
	base, kwargs, err := in.evalArgs(e, f)
	if err != nil {
		return val{}, err
	}
	var v val
	if m.fn != nil {
		args := in.boxArgs(in.args(base))
		out, cerr := m.call(in, at.Name, recv.ref, args, kwargs)
		in.popBoxed(len(args))
		v, err = in.builtinResult(out, cerr, typ, at.Name, e.Pos())
	} else {
		v, err = in.call(fn.box(), in.args(base), kwargs, e.Pos())
	}
	in.popArgs(base)
	return v, err
}

// builtinResult shapes what a Go-implemented callable returned: nil means
// None, and a plain Go error becomes a script error naming the callable.
func (in *Interp) builtinResult(v Value, err error, typ, name string, line int) (val, error) {
	if err != nil {
		if _, ok := err.(*RuntimeError); ok {
			return val{}, err
		}
		if typ != "" {
			name = typ + "." + name
		}
		return val{}, in.rtErrf(line, "%s: %v", name, errMsg(err))
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

// errMsg strips the core error prefix for nicer script-level messages.
func errMsg(err error) string {
	if ce, ok := err.(*core.Error); ok {
		return ce.Msg
	}
	return err.Error()
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
		globals: fn.Closure.globals, scope: fn.scope, slots: make([]val, fn.scope.nslots), outer: fn.Closure,
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
		if p.Default == nil {
			return val{}, in.rtErrf(line, "%s() missing required argument: '%s'", displayName(fn), p.Name)
		}
		// Defaults are evaluated per call, in the defining scope.
		dframe := *fn.Closure
		dframe.FuncName, dframe.Module, dframe.Line, dframe.Caller, dframe.Depth =
			frame.FuncName, fn.Module, fn.DefLine, caller, depth
		in.frame = &dframe
		dv, err := in.eval(p.Default, &dframe)
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

func (in *Interp) index(x, idx val, line int) (val, error) {
	// cell checks an index into a list or tuple of n cells.
	cell := func(n int) (int, error) {
		i, ok := idx.asInt()
		if !ok {
			return 0, in.rtErrf(line, "%s indices must be integers, not %s", x.typeName(), idx.typeName())
		}
		if i < 0 {
			i += int64(n)
		}
		if i < 0 || i >= int64(n) {
			return 0, in.rtErrf(line, "%s index out of range", x.typeName())
		}
		return int(i), nil
	}
	switch c := x.ref.(type) {
	case *ListVal:
		i, err := cell(c.Len())
		if err != nil {
			return val{}, err
		}
		return c.at(i), nil
	case *TupleVal:
		i, err := cell(len(c.Items))
		if err != nil {
			return val{}, err
		}
		return unbox(c.Items[i]), nil
	case StrVal:
		i, ok := idx.asInt()
		if !ok {
			return val{}, in.rtErrf(line, "string indices must be integers")
		}
		runes := []rune(string(c))
		n := int64(len(runes))
		if i < 0 {
			i += n
		}
		if i < 0 || i >= n {
			return val{}, in.rtErrf(line, "string index out of range")
		}
		return val{ref: StrVal(string(runes[i]))}, nil
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
		i, ok := idx.asInt()
		if !ok {
			return val{}, in.rtErrf(line, "range indices must be integers")
		}
		n := c.Len()
		if i < 0 {
			i += n
		}
		if i < 0 || i >= n {
			return val{}, in.rtErrf(line, "range index out of range")
		}
		return intV(c.Start + i*c.Step), nil
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
		return boolV((op == OpLt && c < 0) || (op == OpLe && c <= 0) || (op == OpGt && c > 0) || (op == OpGe && c >= 0)), nil
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
			return floatV(math.Pow(float64(li), float64(ri))), nil
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

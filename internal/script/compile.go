package script

import (
	"cmp"
	"fmt"
	"slices"
)

type (
	// evalFn is a compiled expression.
	evalFn func(in *Interp, f *Frame) (val, error)
	// execFn is the work of a compiled statement; its prologue is block's.
	execFn func(in *Interp, f *Frame) error
)

// block is a compiled statement list. Running it is where each statement's
// prologue lives: the frame's line, the step and the trace hook's line event,
// tested at run time because a debugger installs the hook after binding.
type block []struct {
	line int
	run  execFn
}

func (b block) exec(in *Interp, f *Frame) error {
	for i := range b {
		s := &b[i]
		f.Line = s.line
		if err := in.bumpStep(s.line); err != nil {
			return err
		}
		if in.Trace != nil {
			if err := in.Trace(in, TraceEvent{Kind: TraceLine, Frame: f, Line: s.line}); err != nil {
				return err
			}
		}
		if err := s.run(in, f); err != nil {
			return err
		}
	}
	return nil
}

// compileBlock compiles a statement list. The parser refuses an empty block,
// so an empty one is an absent clause.
func compileBlock(body []Stmt) block {
	b := make(block, len(body))
	for i, st := range body {
		b[i].line, b[i].run = st.Pos(), compileStmt(st)
	}
	return b
}

// code is what a def or lambda compiles to, shared by every function value
// it evaluates to.
type code struct {
	scope    *funcInfo
	body     block    // def
	expr     evalFn   // lambda
	defaults []evalFn // by parameter; nil where there is none
}

func compileFunc(params []Param, scope *funcInfo) *code {
	c := &code{scope: scope, defaults: make([]evalFn, len(params))}
	for i, p := range params {
		c.defaults[i] = compileExpr(p.Default)
	}
	return c
}

func compileStmt(st Stmt) execFn {
	line := st.Pos()
	switch st := st.(type) {
	case *ExprStmt:
		x := compileExpr(st.X)
		return func(in *Interp, f *Frame) error {
			_, err := x(in, f)
			return err
		}
	case *AssignStmt:
		value, to := compileExpr(st.Value), compileTarget(st.Target)
		return func(in *Interp, f *Frame) error {
			v, err := value(in, f)
			if err != nil {
				return err
			}
			return to.set(in, f, v)
		}
	case *AugAssignStmt:
		return compileAugAssign(st)
	case *ReturnStmt:
		x := compileExpr(cmp.Or(st.Value, Expr(&Lit{st.pos, None})))
		return func(in *Interp, f *Frame) (err error) {
			if f.ret, err = x(in, f); err != nil {
				return err
			}
			return returnSignal{}
		}
	case *PassStmt, *GlobalStmt: // global acts at resolve time
		return func(*Interp, *Frame) error { return nil }
	case *BreakStmt:
		return func(*Interp, *Frame) error { return breakSignal{} }
	case *ContinueStmt:
		return func(*Interp, *Frame) error { return continueSignal{} }
	case *IfStmt:
		cond, then, els := compileExpr(st.Cond), compileBlock(st.Body), compileBlock(st.Else)
		return func(in *Interp, f *Frame) error {
			c, err := cond(in, f)
			if err != nil {
				return err
			}
			if c.truthy() {
				return then.exec(in, f)
			}
			return els.exec(in, f)
		}
	case *WhileStmt:
		cond, body := compileExpr(st.Cond), compileBlock(st.Body)
		return func(in *Interp, f *Frame) error {
			for {
				c, err := cond(in, f)
				if err != nil || !c.truthy() {
					return err
				}
				if done, err := in.iterated(body.exec(in, f), line); done {
					return err
				}
			}
		}
	case *ForStmt:
		return compileFor(st)
	case *DefStmt:
		c := compileFunc(st.Params, st.scope)
		c.body = compileBlock(st.Body)
		return func(in *Interp, f *Frame) error {
			in.store(st.bind, val{ref: &FuncVal{
				Name: st.Name, Params: st.Params, code: c, Closure: f.env(), Module: f.Module, DefLine: line,
			}}, f)
			return nil
		}
	case *ImportStmt:
		return func(in *Interp, f *Frame) error {
			mod, err := in.importModule(st.Module, line)
			if err != nil {
				return err
			}
			in.store(st.bind, unbox(mod), f)
			return nil
		}
	case *FromImportStmt:
		return func(in *Interp, f *Frame) error {
			mod, err := in.importModule(st.Module, line)
			if err != nil {
				return err
			}
			obj, ok := mod.(*ObjectVal)
			if !ok {
				return in.rtErrf(line, "cannot import names from %s", mod.TypeName())
			}
			for i, pair := range st.Names {
				v, err := in.getAttr(obj, pair[0], line)
				if err != nil {
					return in.rtErrf(line, "cannot import name '%s' from '%s'", pair[0], st.Module)
				}
				in.store(st.binds[i], unbox(v), f)
			}
			return nil
		}
	case *DelStmt:
		return compileDel(st.Target)
	case *AssertStmt:
		cond, msg := compileExpr(st.Cond), compileExpr(cmp.Or(st.Msg, Expr(&Lit{st.pos, StrVal("assertion failed")})))
		return func(in *Interp, f *Frame) error {
			c, err := cond(in, f)
			if err != nil || c.truthy() {
				return err
			}
			m, err := msg(in, f)
			if err != nil {
				return err
			}
			return in.rtErrf(line, "AssertionError: %s", Str(m.box()))
		}
	case *RaiseStmt:
		x := compileExpr(st.Value)
		return func(in *Interp, f *Frame) error {
			msg := "exception"
			var raised Value = None
			if x != nil {
				v, err := x(in, f)
				if err != nil {
					return err
				}
				raised = v.box()
				// `raise Exception("msg")` parses as a call; the Exception
				// builtin returns its argument, so Str(v) is the message.
				msg = Str(raised)
			}
			re := in.rtErrf(line, "%s", msg)
			re.Value = raised
			return re
		}
	case *TryStmt:
		body, handler, finally := compileBlock(st.Body), compileBlock(st.Handler), compileBlock(st.Finally)
		return func(in *Interp, f *Frame) error {
			err := body.exec(in, f)
			switch err.(type) {
			case nil:
			case breakSignal, continueSignal, returnSignal:
				// control flow passes through finally
			default:
				if len(handler) > 0 {
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
					err = handler.exec(in, f)
				}
			}
			if ferr := finally.exec(in, f); ferr != nil {
				return ferr
			}
			return err
		}
	}
	panic(fmt.Sprintf("script: cannot compile %T", st))
}

// compileFor walks the iterable as seq does, inline: a range counted with an
// int64, a list read from whichever lane holds it.
func compileFor(st *ForStmt) execFn {
	iter, to, body, line := compileExpr(st.Iter), compileTarget(st.Target), compileBlock(st.Body), st.Line
	return func(in *Interp, f *Frame) error {
		it, err := iter(in, f)
		if err != nil {
			return err
		}
		s, err := in.seq(it.box(), line) // empty when err is set
		for k := int64(0); k < s.n; k++ {
			item := intV(s.r.Start + k*s.r.Step)
			if s.list != nil {
				if k >= int64(s.list.Len()) { // it shrank under the loop
					return nil
				}
				item = s.list.at(int(k))
			}
			if err := to.set(in, f, item); err != nil {
				return err
			}
			if done, err := in.iterated(body.exec(in, f), line); done {
				return err
			}
		}
		return err
	}
}

// compileAugAssign updates a local in place.
func compileAugAssign(st *AugAssignStmt) execFn {
	if n, ok := st.Target.(*Name); ok && n.kind == nameLocal {
		rhs, op, line, slot := compileLeaf(st.Value), st.Op, st.Line, n.idx
		return func(in *Interp, f *Frame) (err error) {
			a := f.slots[slot]
			if !a.bound() {
				_, err = in.load(n, f)
				return err
			}
			b, ok := rhs.local(f)
			if !ok {
				if b, err = rhs.get(in, f); err != nil {
					return err
				}
			}
			v, ok := arith(op, a, b)
			if !ok {
				if v, err = in.binop(op, a, b, line); err != nil {
					return err
				}
			}
			f.slots[slot] = v
			return nil
		}
	}
	// target = target op value: its expressions are evaluated twice, once to
	// read and once to store.
	return compileStmt(&AssignStmt{st.pos, st.Target, &BinExpr{st.pos, st.Op, st.Target, st.Value}})
}

func compileDel(target Expr) execFn {
	line := target.Pos()
	switch t := target.(type) {
	case *Name:
		return func(in *Interp, f *Frame) error {
			if t.kind == nameLocal {
				if fr := f.up(t.depth); fr.slots[t.idx].bound() {
					fr.slots[t.idx] = val{}
					return nil
				}
			} else if _, ok := f.globals.vars[t.Ident]; ok {
				delete(f.globals.vars, t.Ident)
				return nil
			}
			return in.rtErrf(line, "name '%s' is not defined", t.Ident)
		}
	case *IndexExpr:
		x, idx := compileExpr(t.X), compileExpr(t.Idx)
		return func(in *Interp, f *Frame) error {
			container, err := x(in, f)
			if err != nil {
				return err
			}
			i, err := idx(in, f)
			if err != nil {
				return err
			}
			switch c := container.ref.(type) {
			case *DictVal:
				ok, err := c.Delete(i.box())
				if err != nil {
					return in.rtErrf(line, "%v", err)
				}
				if !ok {
					return in.rtErrf(line, "KeyError: %s", i.box().Repr())
				}
				return nil
			case *ListVal:
				n, isInt := i.asInt()
				if !isInt {
					return in.rtErrf(line, "list indices must be integers")
				}
				k, ok := cell(n, int64(c.Len()))
				if !ok {
					return in.rtErrf(line, "list index out of range")
				}
				c.Items = slices.Delete(c.Boxed(), int(k), int(k)+1)
				return nil
			}
			return in.rtErrf(line, "cannot delete from %s", container.typeName())
		}
	}
	return func(in *Interp, _ *Frame) error { return in.rtErrf(line, "cannot delete this expression") }
}

// target is a compiled assignment target: a local slot of the running frame
// is written in place, anything else through fn.
type target struct {
	slot int // -1 unless the target is a local
	fn   func(in *Interp, f *Frame, v val) error
}

func (t target) set(in *Interp, f *Frame, v val) error {
	if t.slot >= 0 {
		f.slots[t.slot] = v
		return nil
	}
	return t.fn(in, f, v)
}

func compileTarget(e Expr) target {
	line := e.Pos()
	switch t := e.(type) {
	case *Name:
		if t.kind == nameLocal { // a function binds only its own slots
			return target{slot: t.idx}
		}
		return target{-1, func(in *Interp, f *Frame, v val) error {
			in.store(t, v, f)
			return nil
		}}
	case *SeqLit:
		elems := make([]target, len(t.Elems))
		for i, el := range t.Elems {
			elems[i] = compileTarget(el)
		}
		return target{-1, func(in *Interp, f *Frame, v val) error {
			var items []Value
			switch c := v.ref.(type) {
			case *TupleVal:
				items = c.Items
			case *ListVal:
				items = c.Boxed()
			case *DictVal:
				// Deviation from CPython (which unpacks keys): unpacking a
				// dict yields its values in insertion order, so the paper's
				// Listing 3 idiom `(tdata, tlabels) = _conn.execute("SELECT
				// data, labels...")` binds the two result columns directly.
				items = c.Values()
			default:
				return in.rtErrf(line, "cannot unpack non-sequence %s", v.typeName())
			}
			if len(items) != len(elems) {
				return in.rtErrf(line, "cannot unpack %d values into %d targets", len(items), len(elems))
			}
			for i, el := range elems {
				if err := el.set(in, f, unbox(items[i])); err != nil {
					return err
				}
			}
			return nil
		}}
	case *IndexExpr:
		x, idx := compileExpr(t.X), compileExpr(t.Idx)
		return target{-1, func(in *Interp, f *Frame, v val) error {
			container, err := x(in, f)
			if err != nil {
				return err
			}
			i, err := idx(in, f)
			if err != nil {
				return err
			}
			switch c := container.ref.(type) {
			case *ListVal:
				n, isInt := i.asInt()
				if !isInt {
					return in.rtErrf(line, "list indices must be integers, not %s", i.typeName())
				}
				k, ok := cell(n, int64(c.Len()))
				if !ok {
					return in.rtErrf(line, "list assignment index out of range")
				}
				c.set(int(k), v)
				return nil
			case *DictVal:
				if err := c.Set(i.box(), v.box()); err != nil {
					return in.rtErrf(line, "%v", err)
				}
				return nil
			}
			return in.rtErrf(line, "'%s' object does not support item assignment", container.typeName())
		}}
	case *AttrExpr:
		x := compileExpr(t.X)
		return target{-1, func(in *Interp, f *Frame, v val) error {
			obj, err := x(in, f)
			if err != nil {
				return err
			}
			o, ok := obj.ref.(*ObjectVal)
			if !ok {
				return in.rtErrf(line, "cannot set attribute on '%s'", obj.typeName())
			}
			o.Attrs.SetStr(t.Name, v.box())
			return nil
		}}
	}
	return target{-1, func(in *Interp, _ *Frame, _ val) error {
		return in.rtErrf(line, "cannot assign to this expression")
	}}
}

// leaf is an operand read in place when resolve already placed it — a
// local slot of the running frame, or a constant — and computed by fn
// otherwise.
type leaf struct {
	slot int   // a local of the running frame, or -1
	n    *Name // the local
	k    val   // a constant, when fn is nil too
	fn   evalFn
}

func compileLeaf(e Expr) leaf {
	switch e := e.(type) {
	case *Name:
		if e.kind == nameLocal && e.depth == 0 {
			return leaf{slot: e.idx, n: e}
		}
	case *Lit:
		return leaf{slot: -1, k: unbox(e.Value)}
	}
	return leaf{slot: -1, fn: compileExpr(e)}
}

// local reads a bound local or a constant without a call: the closures
// that read operands try it first, and call get only when ok is false.
func (o leaf) local(f *Frame) (v val, ok bool) {
	if o.slot >= 0 {
		v = f.slots[o.slot]
		return v, v.bound()
	}
	return o.k, o.fn == nil
}

func (o *leaf) get(in *Interp, f *Frame) (val, error) {
	if o.fn != nil {
		return o.fn(in, f)
	}
	if v, ok := o.local(f); ok {
		return v, nil
	}
	return in.load(o.n, f) // an unbound local: load names it
}

// compileExpr compiles e; a nil e compiles to nil.
func compileExpr(e Expr) evalFn {
	if e == nil {
		return nil
	}
	line := e.Pos()
	switch e := e.(type) {
	case *Lit:
		v := unbox(e.Value)
		return func(*Interp, *Frame) (val, error) { return v, nil }
	case *Name:
		return func(in *Interp, f *Frame) (val, error) { return in.load(e, f) }
	case *SeqLit:
		elems := compileExprs(e.Elems)
		if !e.Tuple {
			return func(in *Interp, f *Frame) (val, error) {
				out := &ListVal{}
				for _, el := range elems {
					v, err := el(in, f)
					if err != nil {
						return val{}, err
					}
					out.push(v)
				}
				return val{ref: out}, nil
			}
		}
		return func(in *Interp, f *Frame) (val, error) {
			items := make([]Value, len(elems))
			for i, el := range elems {
				v, err := el(in, f)
				if err != nil {
					return val{}, err
				}
				items[i] = v.box()
			}
			return val{ref: &TupleVal{Items: items}}, nil
		}
	case *DictLit:
		keys, values := compileExprs(e.Keys), compileExprs(e.Values)
		return func(in *Interp, f *Frame) (val, error) {
			d := NewDict()
			for i := range keys {
				k, err := keys[i](in, f)
				if err != nil {
					return val{}, err
				}
				v, err := values[i](in, f)
				if err != nil {
					return val{}, err
				}
				if err := d.Set(k.box(), v.box()); err != nil {
					return val{}, in.rtErrf(line, "%v", err)
				}
			}
			return val{ref: d}, nil
		}
	case *UnaryExpr:
		x, op := compileExpr(e.X), e.Op
		return func(in *Interp, f *Frame) (val, error) {
			v, err := x(in, f)
			if err != nil {
				return val{}, err
			}
			return in.unop(op, v, line)
		}
	case *BinExpr:
		return compileBinary(e)
	case *CondExpr:
		cond, then, els := compileExpr(e.Cond), compileExpr(e.Then), compileExpr(e.Else)
		return func(in *Interp, f *Frame) (val, error) {
			c, err := cond(in, f)
			if err != nil {
				return val{}, err
			}
			if c.truthy() {
				return then(in, f)
			}
			return els(in, f)
		}
	case *CallExpr:
		return compileCall(e)
	case *IndexExpr:
		ops := &[2]leaf{compileLeaf(e.X), compileLeaf(e.Idx)}
		x, idx := &ops[0], &ops[1]
		return func(in *Interp, f *Frame) (val, error) {
			var err error
			c, ok := x.local(f)
			if !ok {
				if c, err = x.get(in, f); err != nil {
					return val{}, err
				}
			}
			i, ok := idx.local(f)
			if !ok {
				if i, err = idx.get(in, f); err != nil {
					return val{}, err
				}
			}
			if l, ok := c.ref.(*ListVal); ok && i.kind == kInt && i.bits < uint64(l.Len()) { // column[i]
				return l.at(int(i.bits)), nil
			}
			return in.index(c, i, line)
		}
	case *SliceExpr:
		none := &Lit{e.pos, None} // a bound left out
		x, lo, hi := compileExpr(e.X), compileExpr(cmp.Or(e.Lo, Expr(none))), compileExpr(cmp.Or(e.Hi, Expr(none)))
		return func(in *Interp, f *Frame) (val, error) {
			v, err := x(in, f)
			if err != nil {
				return val{}, err
			}
			l, err := lo(in, f)
			if err != nil {
				return val{}, err
			}
			h, err := hi(in, f)
			if err != nil {
				return val{}, err
			}
			return in.slice(v, l, h, line)
		}
	case *AttrExpr:
		x, name := compileExpr(e.X), e.Name
		return func(in *Interp, f *Frame) (val, error) {
			v, err := x(in, f)
			if err != nil {
				return val{}, err
			}
			attr, err := in.getAttr(v.box(), name, line)
			return unbox(attr), err
		}
	case *LambdaExpr:
		c := compileFunc(e.Params, e.scope)
		c.expr = compileExpr(e.Body)
		return func(_ *Interp, f *Frame) (val, error) {
			return val{ref: &FuncVal{Params: e.Params, code: c, Closure: f.env(), Module: f.Module, DefLine: line}}, nil
		}
	case *CompExpr:
		return compileComp(e)
	}
	panic(fmt.Sprintf("script: cannot compile %T", e))
}

func compileExprs(list []Expr) []evalFn {
	out := make([]evalFn, len(list))
	for i, e := range list {
		out[i] = compileExpr(e)
	}
	return out
}

// arith is + - * on two numbers in the lane, done in place; ok is false for
// anything else, which binop does.
func arith(op Op, a, b val) (val, bool) {
	if a.kind == kInt && b.kind == kInt {
		switch op {
		case OpAdd:
			return intV(a.int() + b.int()), true
		case OpSub:
			return intV(a.int() - b.int()), true
		case OpMul:
			return intV(a.int() * b.int()), true
		}
	} else if a.kind != kRef && b.kind != kRef {
		switch op {
		case OpAdd:
			return floatV(a.float() + b.float()), true
		case OpSub:
			return floatV(a.float() - b.float()), true
		case OpMul:
			return floatV(a.float() * b.float()), true
		}
	}
	return val{}, false
}

func compileBinary(e *BinExpr) evalFn {
	ops, op, line := &[2]leaf{compileLeaf(e.L), compileLeaf(e.R)}, e.Op, e.Line
	l, r := &ops[0], &ops[1]
	if op == OpAnd || op == OpOr { // short-circuit: the deciding operand is the value
		return func(in *Interp, f *Frame) (val, error) {
			v, err := l.get(in, f)
			if err != nil || v.truthy() != (op == OpAnd) {
				return v, err
			}
			return r.get(in, f)
		}
	}
	return func(in *Interp, f *Frame) (val, error) {
		var err error
		a, ok := l.local(f)
		if !ok {
			if a, err = l.get(in, f); err != nil {
				return val{}, err
			}
		}
		b, ok := r.local(f)
		if !ok {
			if b, err = r.get(in, f); err != nil {
				return val{}, err
			}
		}
		if v, ok := arith(op, a, b); ok {
			return v, nil
		}
		return in.binop(op, a, b, line)
	}
}

// compileComp compiles a comprehension. Its loop ends every iteration the
// way a for statement's does, kept or filtered out.
func compileComp(e *CompExpr) evalFn {
	iter, to, elem, line := compileExpr(e.Iter), compileTarget(e.Target), compileExpr(e.Elem), e.Line
	cond := compileExpr(cmp.Or(e.Cond, Expr(&Lit{e.pos, BoolVal(true)}))) // no filter keeps every item
	return func(in *Interp, f *Frame) (val, error) {
		it, err := iter(in, f)
		if err != nil {
			return val{}, err
		}
		s, err := in.seq(it.box(), line)
		if err != nil {
			return val{}, err
		}
		out := &ListVal{}
		for item, ok := s.next(); ok; item, ok = s.next() {
			if err := to.set(in, f, item); err != nil {
				return val{}, err
			}
			c, err := cond(in, f)
			if err != nil {
				return val{}, err
			}
			if c.truthy() {
				v, err := elem(in, f)
				if err != nil {
					return val{}, err
				}
				out.push(v)
			}
			if _, err := in.iterated(nil, line); err != nil {
				return val{}, err
			}
		}
		return val{ref: out}, nil
	}
}

// args is a call's compiled arguments.
type args struct {
	pos   []leaf
	names []string
	kw    []evalFn
}

// push evaluates the arguments onto the argument stack and returns where
// their window starts; the caller releases it with popArgs.
func (a *args) push(in *Interp, f *Frame) (base int, kwargs map[string]Value, err error) {
	base = len(in.stack)
	for i := range a.pos {
		v, err := a.pos[i].get(in, f)
		if err != nil {
			in.popArgs(base)
			return base, nil, err
		}
		in.stack = append(in.stack, v)
	}
	if len(a.names) > 0 {
		kwargs = make(map[string]Value, len(a.names))
		for i, n := range a.names {
			v, err := a.kw[i](in, f)
			if err != nil {
				in.popArgs(base)
				return base, nil, err
			}
			kwargs[n] = v.box()
		}
	}
	return base, kwargs, nil
}

// call calls fn with the arguments.
func (a *args) call(in *Interp, f *Frame, fn Value, line int) (val, error) {
	base, kwargs, err := a.push(in, f)
	if err != nil {
		return val{}, err
	}
	v, err := in.call(fn, in.args(base), kwargs, line)
	in.popArgs(base)
	return v, err
}

// compileCall compiles a call. x.name(...) on a list, dict or str goes
// straight to the method's Go function, with no bound-method value built,
// and out.append(x) straight into out's lane; a call of a numeric builtin
// goes straight to its lane while module scope has not rebound its name.
func compileCall(e *CallExpr) evalFn {
	a := &args{pos: make([]leaf, len(e.Args)), names: e.KwName, kw: compileExprs(e.KwVal)}
	for i, x := range e.Args {
		a.pos[i] = compileLeaf(x)
	}
	line := e.Line
	if at, ok := e.Fn.(*AttrExpr); ok {
		recv, name, atLine := compileLeaf(at.X), at.Name, at.Line
		appendOne := name == "append" && len(e.Args) == 1 && len(e.KwName) == 0
		return func(in *Interp, f *Frame) (val, error) {
			var err error
			r, ok := recv.local(f)
			if !ok {
				if r, err = recv.get(in, f); err != nil {
					return val{}, err
				}
			}
			if l, ok := r.ref.(*ListVal); ok && appendOne {
				v, err := a.pos[0].get(in, f)
				if err == nil {
					l.push(v)
				}
				return noneV, err
			}
			m, typ := builtinMethod(r.ref, name)
			if m.fn == nil {
				fn, err := in.getAttr(r.box(), name, atLine)
				if err != nil {
					return val{}, err
				}
				return a.call(in, f, fn, line)
			}
			base, kwargs, err := a.push(in, f)
			if err != nil {
				return val{}, err
			}
			boxed := in.boxArgs(in.args(base))
			out, cerr := m.call(in, name, r.ref, boxed, kwargs)
			in.popBoxed(len(boxed))
			in.popArgs(base)
			return in.builtinResult(out, cerr, typ, name, line)
		}
	}
	n, ok := e.Fn.(*Name)
	if !ok || n.kind != nameBuiltin || builtinTable[n.idx].lane == nil || len(e.KwName) > 0 {
		fn := compileExpr(e.Fn)
		return func(in *Interp, f *Frame) (val, error) {
			v, err := fn(in, f)
			if err != nil {
				return val{}, err
			}
			return a.call(in, f, v.box(), line)
		}
	}
	b := builtinTable[n.idx]
	return func(in *Interp, f *Frame) (val, error) {
		if f.globals.shadowed { // module scope may have rebound the name
			v, err := in.load(n, f)
			if err != nil {
				return val{}, err
			}
			return a.call(in, f, v.box(), line)
		}
		base, _, err := a.push(in, f)
		if err != nil {
			return val{}, err
		}
		v, err := b.lane(in, in.args(base))
		in.popArgs(base)
		if err != nil {
			return in.builtinResult(nil, err, "", b.Name, line)
		}
		return v, nil
	}
}

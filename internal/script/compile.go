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
	// laneFn is an expression's lane form (see compileLane).
	laneFn func(f *Frame) (val, bool)
)

// compiler compiles resolved code. Parse uses the zero value; generic leaves
// out every lane form, so that only the closures run, which is what
// FuzzLaneFormAgrees compares the zero value against.
type compiler struct{ generic bool }

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
func (c compiler) compileBlock(body []Stmt) block {
	b := make(block, len(body))
	for i, st := range body {
		b[i].line, b[i].run = st.Pos(), c.compileStmt(st)
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

func (c compiler) compileFunc(params []Param, scope *funcInfo) *code {
	fc := &code{scope: scope, defaults: make([]evalFn, len(params))}
	for i, p := range params {
		fc.defaults[i] = c.compileExpr(p.Default)
	}
	return fc
}

func (c compiler) compileStmt(st Stmt) execFn {
	line := st.Pos()
	switch st := st.(type) {
	case *ExprStmt:
		x := c.compileExpr(st.X)
		return func(in *Interp, f *Frame) error {
			_, err := x(in, f)
			return err
		}
	case *AssignStmt:
		value, to := c.compileDual(st.Value), c.compileTarget(st.Target)
		return func(in *Interp, f *Frame) error {
			v, err := value.eval(in, f)
			if err != nil {
				return err
			}
			return to.set(in, f, v)
		}
	case *AugAssignStmt:
		// target = target op value: its expressions are evaluated twice, once
		// to read and once to store.
		plain := &AssignStmt{st.pos, st.Target, &BinExpr{st.pos, st.Op, st.Target, st.Value}}
		n, ok := st.Target.(*Name)
		rhs, op := c.compileNum(st.Value), st.Op
		if !ok || n.kind != nameLocal || rhs == nil || op > OpDiv {
			return c.compileStmt(plain)
		}
		slot, value := n.idx, c.compileExpr(plain.Value)
		return func(in *Interp, f *Frame) error {
			if b, ok := rhs(f); ok {
				if v, ok := arith(op, f.slots[slot], b); ok { // the target read and written in place
					f.slots[slot] = v
					return nil
				}
			}
			v, err := value(in, f)
			if err == nil {
				f.slots[slot] = v
			}
			return err
		}
	case *ReturnStmt:
		x := c.compileExpr(cmp.Or(st.Value, Expr(&Lit{st.pos, None})))
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
		cond, then, els := c.compileDual(st.Cond), c.compileBlock(st.Body), c.compileBlock(st.Else)
		return func(in *Interp, f *Frame) error {
			c, err := cond.eval(in, f)
			if err != nil {
				return err
			}
			if c.truthy() {
				return then.exec(in, f)
			}
			return els.exec(in, f)
		}
	case *WhileStmt:
		cond, body := c.compileDual(st.Cond), c.compileBlock(st.Body)
		return func(in *Interp, f *Frame) error {
			for {
				c, err := cond.eval(in, f)
				if err != nil || !c.truthy() {
					return err
				}
				if done, err := in.iterated(body.exec(in, f), line); done {
					return err
				}
			}
		}
	case *ForStmt:
		return c.compileFor(st)
	case *DefStmt:
		fc := c.compileFunc(st.Params, st.scope)
		fc.body = c.compileBlock(st.Body)
		return func(in *Interp, f *Frame) error {
			in.store(st.bind, val{ref: &FuncVal{
				Name: st.Name, Params: st.Params, code: fc, Closure: f.env(), Module: f.Module, DefLine: line,
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
		return c.compileDel(st.Target)
	case *AssertStmt:
		cond, msg := c.compileExpr(st.Cond), c.compileExpr(cmp.Or(st.Msg, Expr(&Lit{st.pos, StrVal("assertion failed")})))
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
		x := c.compileExpr(st.Value)
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
		body, handler, finally := c.compileBlock(st.Body), c.compileBlock(st.Handler), c.compileBlock(st.Finally)
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
func (c compiler) compileFor(st *ForStmt) execFn {
	iter, to, body, line := c.compileExpr(st.Iter), c.compileTarget(st.Target), c.compileBlock(st.Body), st.Line
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

func (c compiler) compileDel(target Expr) execFn {
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
		x, idx := c.compileExpr(t.X), c.compileExpr(t.Idx)
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

func (c compiler) compileTarget(e Expr) target {
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
			elems[i] = c.compileTarget(el)
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
		x, idx := c.compileExpr(t.X), c.compileExpr(t.Idx)
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
		x := c.compileExpr(t.X)
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

func (c compiler) compileLeaf(e Expr) leaf {
	switch e := e.(type) {
	case *Name:
		if e.kind == nameLocal && e.depth == 0 {
			return leaf{slot: e.idx, n: e}
		}
	case *Lit:
		return leaf{slot: -1, k: unbox(e.Value)}
	}
	return leaf{slot: -1, fn: c.compileExpr(e)}
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
func (c compiler) compileExpr(e Expr) evalFn {
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
		elems := c.compileExprs(e.Elems)
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
		keys, values := c.compileExprs(e.Keys), c.compileExprs(e.Values)
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
		x, op := c.compileExpr(e.X), e.Op
		return func(in *Interp, f *Frame) (val, error) {
			v, err := x(in, f)
			if err != nil {
				return val{}, err
			}
			return in.unop(op, v, line)
		}
	case *BinExpr:
		return c.compileBinary(e)
	case *CondExpr:
		cond, then, els := c.compileExpr(e.Cond), c.compileExpr(e.Then), c.compileExpr(e.Else)
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
		return c.compileCall(e)
	case *IndexExpr:
		ops := &[2]leaf{c.compileLeaf(e.X), c.compileLeaf(e.Idx)}
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
			return in.index(c, i, line)
		}
	case *SliceExpr:
		none := &Lit{e.pos, None} // a bound left out
		x, lo, hi := c.compileExpr(e.X), c.compileExpr(cmp.Or(e.Lo, Expr(none))), c.compileExpr(cmp.Or(e.Hi, Expr(none)))
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
		x, name := c.compileExpr(e.X), e.Name
		return func(in *Interp, f *Frame) (val, error) {
			v, err := x(in, f)
			if err != nil {
				return val{}, err
			}
			attr, err := in.getAttr(v.box(), name, line)
			return unbox(attr), err
		}
	case *LambdaExpr:
		fc := c.compileFunc(e.Params, e.scope)
		fc.expr = c.compileExpr(e.Body)
		return func(_ *Interp, f *Frame) (val, error) {
			return val{ref: &FuncVal{Params: e.Params, code: fc, Closure: f.env(), Module: f.Module, DefLine: line}}, nil
		}
	case *CompExpr:
		return c.compileComp(e)
	}
	panic(fmt.Sprintf("script: cannot compile %T", e))
}

func (c compiler) compileExprs(list []Expr) []evalFn {
	out := make([]evalFn, len(list))
	for i, e := range list {
		out[i] = c.compileExpr(e)
	}
	return out
}

// dual is an expression compiled both ways, for where a number is computed
// to be kept — an assignment, an append, a condition: eval tries the lane
// form first.
type dual struct {
	lane laneFn // nil when the expression has none
	fn   evalFn
}

func (c compiler) compileDual(e Expr) dual { return dual{c.compileLane(e), c.compileExpr(e)} }

func (x dual) eval(in *Interp, f *Frame) (val, error) {
	if x.lane != nil {
		if v, ok := x.lane(f); ok {
			return v, nil
		}
	}
	return x.fn(in, f)
}

// compileLane returns e's lane form, or nil if it has none. A lane form
// computes a number, or a comparison of two, from frame slots and list cells
// alone: it never errors, steps, allocates or writes anything. It answers
// ok=false whenever it cannot compute the value so — an unbound or
// non-number local, a NULL or missing cell, a zero divisor, a rebound
// builtin — and the caller then runs the closure, which evaluates the
// expression again from the start and raises, counts and traces as always.
// Nothing it reads is written after Parse, so no guard needs state.
func (c compiler) compileLane(e Expr) laneFn {
	if b, ok := e.(*BinExpr); ok && b.Op >= OpEq && b.Op <= OpGe {
		l, r, op := c.compileNum(b.L), c.compileNum(b.R), b.Op
		if l == nil || r == nil {
			return nil
		}
		return func(f *Frame) (val, bool) {
			a, ok := l(f)
			if !ok {
				return a, false
			}
			b, ok := r(f)
			if !ok {
				return b, false
			}
			return boolV(compare(op, a, b)), true
		}
	}
	return c.compileNum(e)
}

// compileNum returns e's lane form if it computes a number: one whose
// answer, when ok, is an int or a float.
func (c compiler) compileNum(e Expr) laneFn {
	if c.generic {
		return nil
	}
	switch e := e.(type) {
	case *Name:
		if e.kind == nameLocal && e.depth == 0 {
			slot := e.idx
			return func(f *Frame) (val, bool) { v := f.slots[slot]; return v, v.kind != kRef }
		}
	case *Lit:
		if k := unbox(e.Value); k.kind != kRef {
			return func(*Frame) (val, bool) { return k, true }
		}
	case *IndexExpr: // local[i]
		x, ok := e.X.(*Name)
		i := c.compileOperand(e.Idx)
		if !ok || x.kind != nameLocal || x.depth != 0 || !i.ok() {
			return nil
		}
		slot := x.idx
		return func(f *Frame) (val, bool) {
			l, ok := f.slots[slot].ref.(*ListVal)
			k, kok := i.get(f)
			if !ok || !kok || k.kind != kInt {
				return val{}, false
			}
			n, ok := cell(k.int(), int64(l.Len()))
			if !ok {
				return val{}, false
			}
			switch { // a column's cell, inline
			case l.nulls != nil:
			case l.lane == laneInt:
				return intV(l.ints[n]), true
			case l.lane == laneFloat:
				return floatV(l.flts[n]), true
			}
			v := l.at(int(n))
			return v, v.kind != kRef
		}
	case *UnaryExpr:
		if x := c.compileNum(e.X); x != nil && e.Op == OpSub {
			return func(f *Frame) (val, bool) {
				v, ok := x(f)
				if v.kind == kFloat {
					return floatV(-v.float()), ok
				}
				return intV(-v.int()), ok
			}
		}
	case *BinExpr:
		l, r, op := c.compileOperand(e.L), c.compileOperand(e.R), e.Op
		if l.ok() && r.ok() && op <= OpDiv {
			return func(f *Frame) (val, bool) {
				a, ok := l.get(f)
				if !ok {
					return a, false
				}
				b, ok := r.get(f)
				if !ok {
					return b, false
				}
				return arith(op, a, b)
			}
		}
	case *CallExpr: // abs(x), float(x), int(x)
		n, ok := e.Fn.(*Name)
		if !ok || n.kind != nameBuiltin || len(e.Args) != 1 || len(e.KwName) > 0 {
			return nil
		}
		num, x := numBuiltins[builtinTable[n.idx].Name], c.compileNum(e.Args[0])
		if num != nil && x != nil {
			return func(f *Frame) (val, bool) {
				v, ok := x(f)
				if !ok || f.globals.shadowed { // module scope may have rebound the name
					return v, false
				}
				return num(v)
			}
		}
	}
	return nil
}

// operand is a lane form's operand: a local of the running frame, read in
// place, or, when fn is set, that lane form.
type operand struct {
	slot int
	fn   laneFn
}

func (c compiler) compileOperand(e Expr) operand {
	if n, ok := e.(*Name); ok && n.kind == nameLocal && n.depth == 0 {
		return operand{slot: n.idx}
	}
	return operand{-1, c.compileNum(e)}
}

func (o operand) ok() bool { return o.slot >= 0 || o.fn != nil }

// get reads o. Unlike a lane form it answers a local whatever it holds: the
// caller tests the kind. It is kept small enough to be inlined.
func (o operand) get(f *Frame) (v val, ok bool) {
	if o.fn == nil {
		v, ok = f.slots[o.slot], true
	} else {
		v, ok = o.fn(f)
	}
	return
}

// arith is + - * / on two numbers as binop does it; ok is false for
// anything else and for a zero divisor, which binop raises.
func arith(op Op, a, b val) (val, bool) {
	if a.kind == kRef || b.kind == kRef {
		return val{}, false
	}
	if a.kind == kInt && b.kind == kInt {
		switch op {
		case OpAdd:
			return intV(a.int() + b.int()), true
		case OpSub:
			return intV(a.int() - b.int()), true
		case OpMul:
			return intV(a.int() * b.int()), true
		}
	}
	switch op {
	case OpAdd:
		return floatV(a.float() + b.float()), true
	case OpSub:
		return floatV(a.float() - b.float()), true
	case OpMul:
		return floatV(a.float() * b.float()), true
	}
	d := b.float() // OpDiv
	return floatV(a.float() / d), d != 0
}

// compare is == != < <= > >= on two numbers as binop does it.
func compare(op Op, a, b val) bool {
	switch op {
	case OpEq:
		return equalVal(a, b)
	case OpNe:
		return !equalVal(a, b)
	}
	return ordered(op, cmpNum(a, b))
}

func (c compiler) compileBinary(e *BinExpr) evalFn {
	ops, op, line := &[2]leaf{c.compileLeaf(e.L), c.compileLeaf(e.R)}, e.Op, e.Line
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
		return in.binop(op, a, b, line)
	}
}

// compileComp compiles a comprehension. Its loop ends every iteration the
// way a for statement's does, kept or filtered out.
func (c compiler) compileComp(e *CompExpr) evalFn {
	iter, to, elem, line := c.compileExpr(e.Iter), c.compileTarget(e.Target), c.compileExpr(e.Elem), e.Line
	cond := c.compileExpr(cmp.Or(e.Cond, Expr(&Lit{e.pos, BoolVal(true)}))) // no filter keeps every item
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
// and out.append(x) straight into out's lane.
func (c compiler) compileCall(e *CallExpr) evalFn {
	a := &args{pos: make([]leaf, len(e.Args)), names: e.KwName, kw: c.compileExprs(e.KwVal)}
	for i, x := range e.Args {
		a.pos[i] = c.compileLeaf(x)
	}
	line := e.Line
	if at, ok := e.Fn.(*AttrExpr); ok {
		recv, name, atLine := c.compileLeaf(at.X), at.Name, at.Line
		appendOne := name == "append" && len(e.Args) == 1 && len(e.KwName) == 0
		var item dual
		if appendOne {
			item = dual{c.compileLane(e.Args[0]), a.pos[0].get}
		}
		return func(in *Interp, f *Frame) (val, error) {
			var err error
			r, ok := recv.local(f)
			if !ok {
				if r, err = recv.get(in, f); err != nil {
					return val{}, err
				}
			}
			if l, ok := r.ref.(*ListVal); ok && appendOne {
				v, err := item.eval(in, f)
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
	fn := c.compileExpr(e.Fn)
	return func(in *Interp, f *Frame) (val, error) {
		v, err := fn(in, f)
		if err != nil {
			return val{}, err
		}
		return a.call(in, f, v.box(), line)
	}
}

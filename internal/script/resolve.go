package script

// The resolve pass runs once over a parsed AST and applies the package
// comment's scoping rules: per def/lambda it computes the local set, then
// rewrites each Name to the place it lives — a slot of the frame `depth`
// function scopes out, module scope, or the builtin table — and folds
// constant arithmetic so the interpreter never sees it.

// funcInfo is the static scope of a def or lambda.
type funcInfo struct {
	nslots  int             // frame size; parameters take the first slots
	slot    map[string]int  // local name → slot
	globals map[string]bool // names declared `global`: never local, never an enclosing function's
	outer   *funcInfo       // enclosing function; nil when defined at module level
}

// scope is the resolver's state for one function, or for module level
// (info == nil). Names are patched when the scope closes, once every binding
// in it has been seen.
type scope struct {
	info    *funcInfo
	outer   *scope
	nparams int
	refs    []ref
}

// ref is a Name awaiting resolution, depth function scopes in from here.
type ref struct {
	n     *Name
	depth int
}

func resolveModule(mod *Module) {
	s := &scope{}
	s.block(mod.Body)
	s.close()
}

// resolveWatch resolves a debugger expression against the scope of the
// frame it will be evaluated in, as the body of a parameterless lambda
// defined there: the frame's names (and its enclosing functions') resolve
// to their slots, and names the expression itself binds (comprehension
// targets) get slots of their own.
func resolveWatch(x Expr, in *funcInfo) (Expr, *funcInfo) {
	s := &scope{info: &funcInfo{outer: in, slot: map[string]int{}}, outer: sealed(in)}
	x = s.expr(x)
	for sc := s; sc != nil; sc = sc.outer {
		sc.close()
	}
	return x, s.info
}

// sealed rebuilds the scope chain of an already-resolved function.
func sealed(fi *funcInfo) *scope {
	if fi == nil {
		return &scope{}
	}
	return &scope{info: fi, outer: sealed(fi.outer)}
}

// function resolves a def or lambda nested in s and returns its slot table.
// Defaults belong to the defining scope.
func (s *scope) function(params []Param, body func(*scope)) *funcInfo {
	for i := range params {
		params[i].Default = s.expr(params[i].Default)
	}
	in := &scope{info: &funcInfo{outer: s.info, slot: map[string]int{}}, outer: s, nparams: len(params)}
	for _, p := range params {
		in.declare(p.Name)
	}
	body(in)
	in.close()
	return in.info
}

func (s *scope) declare(name string) {
	if s.info == nil || s.info.globals[name] {
		return
	}
	if _, ok := s.info.slot[name]; !ok {
		s.info.slot[name] = s.info.nslots
		s.info.nslots++
	}
}

// bind records that n is assigned in this scope.
func (s *scope) bind(n *Name) *Name {
	s.declare(n.Ident)
	s.refs = append(s.refs, ref{n, 0})
	return n
}

func (s *scope) close() {
	for _, r := range s.refs {
		id := r.n.Ident
		if s.info == nil || s.info.globals[id] {
			r.n.kind = nameGlobal
			if i, ok := builtinIndex[id]; ok {
				r.n.kind, r.n.idx = nameBuiltin, i
			}
		} else if idx, local := s.info.slot[id]; local {
			r.n.kind, r.n.depth, r.n.idx = nameLocal, r.depth, idx
		} else {
			s.outer.refs = append(s.outer.refs, ref{r.n, r.depth + 1})
		}
	}
	s.refs = nil
}

func (s *scope) block(body []Stmt) {
	for _, st := range body {
		s.stmt(st)
	}
}

func (s *scope) stmt(st Stmt) {
	switch st := st.(type) {
	case *ExprStmt:
		st.X = s.expr(st.X)
	case *AssignStmt:
		st.Value = s.expr(st.Value)
		s.target(st.Target)
	case *AugAssignStmt:
		st.Value = s.expr(st.Value)
		s.target(st.Target)
	case *ReturnStmt:
		st.Value = s.expr(st.Value)
	case *IfStmt:
		st.Cond = s.expr(st.Cond)
		s.block(st.Body)
		s.block(st.Else)
	case *WhileStmt:
		st.Cond = s.expr(st.Cond)
		s.block(st.Body)
	case *ForStmt:
		st.Iter = s.expr(st.Iter)
		s.target(st.Target)
		s.block(st.Body)
	case *DefStmt:
		st.bind = s.bind(&Name{pos: st.pos, Ident: st.Name})
		st.scope = s.function(st.Params, func(in *scope) { in.block(st.Body) })
	case *ImportStmt:
		st.bind = s.bind(&Name{pos: st.pos, Ident: st.Alias})
	case *FromImportStmt:
		st.binds = nil
		for _, pair := range st.Names {
			st.binds = append(st.binds, s.bind(&Name{pos: st.pos, Ident: pair[1]}))
		}
	case *GlobalStmt:
		for _, n := range st.Names {
			if s.info == nil {
				continue
			}
			if idx, bound := s.info.slot[n]; !bound || idx >= s.nparams { // a parameter stays local
				if s.info.globals == nil {
					s.info.globals = map[string]bool{}
				}
				s.info.globals[n] = true
				delete(s.info.slot, n) // bound before its `global`: the slot stays unused
			}
		}
	case *DelStmt:
		st.Target = s.expr(st.Target)
	case *AssertStmt:
		st.Cond = s.expr(st.Cond)
		st.Msg = s.expr(st.Msg)
	case *RaiseStmt:
		st.Value = s.expr(st.Value)
	case *TryStmt:
		s.block(st.Body)
		if st.ExcName != "" {
			st.excBind = s.bind(&Name{pos: st.pos, Ident: st.ExcName})
		}
		s.block(st.Handler)
		s.block(st.Finally)
	}
}

// target resolves an assignment target: names are bound, anything else is
// an expression evaluated to find the container.
func (s *scope) target(e Expr) {
	switch e := e.(type) {
	case *Name:
		s.bind(e)
	case *SeqLit:
		for _, el := range e.Elems {
			s.target(el)
		}
	default:
		s.expr(e)
	}
}

func (s *scope) exprs(list []Expr) {
	for i := range list {
		list[i] = s.expr(list[i])
	}
}

// expr resolves e and returns it, or the literal it folds to.
func (s *scope) expr(e Expr) Expr {
	switch e := e.(type) {
	case *Name:
		s.refs = append(s.refs, ref{e, 0})
	case *SeqLit:
		s.exprs(e.Elems)
	case *DictLit:
		s.exprs(e.Keys)
		s.exprs(e.Values)
	case *UnaryExpr:
		e.X = s.expr(e.X)
		if x, ok := constant(e.X); ok {
			return fold(e, func(in *Interp) (val, error) { return in.unop(e.Op, unbox(x), e.Line) })
		}
	case *BinExpr:
		e.L, e.R = s.expr(e.L), s.expr(e.R)
		l, lok := constant(e.L)
		r, rok := constant(e.R)
		if lok && rok && e.Op < OpAnd {
			return fold(e, func(in *Interp) (val, error) { return in.binop(e.Op, unbox(l), unbox(r), e.Line) })
		}
	case *CondExpr:
		e.Cond, e.Then, e.Else = s.expr(e.Cond), s.expr(e.Then), s.expr(e.Else)
	case *CallExpr:
		e.Fn = s.expr(e.Fn)
		s.exprs(e.Args)
		s.exprs(e.KwVal)
	case *IndexExpr:
		e.X, e.Idx = s.expr(e.X), s.expr(e.Idx)
	case *SliceExpr:
		e.X, e.Lo, e.Hi = s.expr(e.X), s.expr(e.Lo), s.expr(e.Hi)
	case *AttrExpr:
		e.X = s.expr(e.X)
	case *LambdaExpr:
		e.scope = s.function(e.Params, func(in *scope) { e.Body = in.expr(e.Body) })
	case *CompExpr:
		e.Iter = s.expr(e.Iter)
		s.target(e.Target)
		e.Cond, e.Elem = s.expr(e.Cond), s.expr(e.Elem)
	}
	return e
}

// constant reports the value of a numeric literal. Only numbers fold:
// their operators cannot produce a large or shared value.
func constant(e Expr) (Value, bool) {
	if l, ok := e.(*Lit); ok {
		if _, num := asFloat(l.Value); num {
			return l.Value, true
		}
	}
	return nil, false
}

// fold evaluates a constant operation now. One that fails (1 / 0) is left
// for run time, where the error gets its line and traceback.
func fold(e Expr, eval func(*Interp) (val, error)) Expr {
	if v, err := eval(&Interp{}); err == nil {
		return &Lit{pos{e.Pos()}, v.box()}
	}
	return e
}

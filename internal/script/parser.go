package script

import (
	"strconv"
	"strings"

	"repro/internal/core"
)

// Parser builds a Module from a token stream.
type Parser struct {
	toks []Token
	pos  int
	name string
}

// Parse parses PyLite source into a Module, resolves it — every name is
// bound to a frame slot, module scope or a builtin, and constant
// sub-expressions are folded — and compiles it, so the Module is ready to
// run and is never written again (any number of interpreters may share it).
// name labels the module in tracebacks (usually the UDF or file name).
func Parse(name, src string) (*Module, error) {
	mod, err := parse(name, src)
	if err == nil {
		resolveModule(mod)
		mod.code = compileBlock(mod.Body)
	}
	return mod, err
}

// parse builds the unresolved AST.
func parse(name, src string) (*Module, error) {
	toks, err := NewLexer(src).Tokens()
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, name: name}
	mod := &Module{Name: name, Lines: strings.Split(src, "\n")}
	for !p.at(TokEOF) {
		if p.atNewline() {
			p.next()
			continue
		}
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		mod.Body = append(mod.Body, st)
	}
	return mod, nil
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) at(k TokKind) bool { return p.cur().Kind == k }
func (p *Parser) atNewline() bool   { return p.at(TokNewline) }
func (p *Parser) atOp(op string) bool {
	return p.cur().Kind == TokOp && p.cur().Lit == op
}
func (p *Parser) atKw(kw string) bool {
	return p.cur().Kind == TokKeyword && p.cur().Lit == kw
}

func (p *Parser) acceptOp(op string) bool {
	if p.atOp(op) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) acceptKw(kw string) bool {
	if p.atKw(kw) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) errf(format string, args ...any) error {
	t := p.cur()
	prefix := p.name + ":" + strconv.Itoa(t.Line) + ": "
	return core.Errorf(core.KindSyntax, prefix+format, args...)
}

func (p *Parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q, found %s", op, p.cur())
	}
	return nil
}

func (p *Parser) expectNewline() error {
	// Tolerate trailing semicolons, which the paper's listings use.
	for p.atOp(";") {
		p.next()
	}
	if p.at(TokEOF) {
		return nil
	}
	if !p.atNewline() {
		return p.errf("expected end of line, found %s", p.cur())
	}
	p.next()
	return nil
}

// block parses NEWLINE INDENT stmt+ DEDENT.
func (p *Parser) block() ([]Stmt, error) {
	if err := p.expectOp(":"); err != nil {
		return nil, err
	}
	// Inline suite: `if x: return y` on one line.
	if !p.atNewline() {
		st, err := p.simpleStatement()
		if err != nil {
			return nil, err
		}
		if err := p.expectNewline(); err != nil {
			return nil, err
		}
		return []Stmt{st}, nil
	}
	p.next() // NEWLINE
	if !p.at(TokIndent) {
		return nil, p.errf("expected an indented block")
	}
	p.next()
	var body []Stmt
	for !p.at(TokDedent) && !p.at(TokEOF) {
		if p.atNewline() {
			p.next()
			continue
		}
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		body = append(body, st)
	}
	if p.at(TokDedent) {
		p.next()
	}
	if len(body) == 0 {
		return nil, p.errf("empty block")
	}
	return body, nil
}

func (p *Parser) statement() (Stmt, error) {
	t := p.cur()
	if t.Kind == TokKeyword {
		switch t.Lit {
		case "if":
			return p.ifStmt()
		case "while":
			return p.whileStmt()
		case "for":
			return p.forStmt()
		case "def":
			return p.defStmt()
		case "try":
			return p.tryStmt()
		}
	}
	st, err := p.simpleStatement()
	if err != nil {
		return nil, err
	}
	if err := p.expectNewline(); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *Parser) simpleStatement() (Stmt, error) {
	t := p.cur()
	if t.Kind == TokKeyword {
		switch t.Lit {
		case "return":
			p.next()
			rs := &ReturnStmt{pos: pos{t.Line}}
			if !p.atNewline() && !p.at(TokEOF) && !p.atOp(";") {
				v, err := p.exprOrTuple()
				if err != nil {
					return nil, err
				}
				rs.Value = v
			}
			return rs, nil
		case "pass":
			p.next()
			return &PassStmt{pos{t.Line}}, nil
		case "break":
			p.next()
			return &BreakStmt{pos{t.Line}}, nil
		case "continue":
			p.next()
			return &ContinueStmt{pos{t.Line}}, nil
		case "import":
			return p.importStmt()
		case "from":
			return p.fromImportStmt()
		case "global":
			p.next()
			gs := &GlobalStmt{pos: pos{t.Line}}
			for {
				if !p.at(TokName) {
					return nil, p.errf("expected name after global")
				}
				gs.Names = append(gs.Names, p.next().Lit)
				if !p.acceptOp(",") {
					break
				}
			}
			return gs, nil
		case "del":
			p.next()
			target, err := p.expr()
			if err != nil {
				return nil, err
			}
			return &DelStmt{pos{t.Line}, target}, nil
		case "assert":
			p.next()
			cond, err := p.expr()
			if err != nil {
				return nil, err
			}
			as := &AssertStmt{pos: pos{t.Line}, Cond: cond}
			if p.acceptOp(",") {
				msg, err := p.expr()
				if err != nil {
					return nil, err
				}
				as.Msg = msg
			}
			return as, nil
		case "raise":
			p.next()
			rs := &RaiseStmt{pos: pos{t.Line}}
			if !p.atNewline() && !p.at(TokEOF) {
				v, err := p.expr()
				if err != nil {
					return nil, err
				}
				rs.Value = v
			}
			return rs, nil
		}
	}
	// Expression, assignment, or augmented assignment.
	lhs, err := p.exprOrTuple()
	if err != nil {
		return nil, err
	}
	if p.atOp("=") {
		p.next()
		rhs, err := p.exprOrTuple()
		if err != nil {
			return nil, err
		}
		if err := checkAssignable(lhs); err != nil {
			return nil, p.errf("%v", err)
		}
		return &AssignStmt{pos{t.Line}, lhs, rhs}, nil
	}
	for _, aug := range []string{"+=", "-=", "*=", "/=", "%=", "//=", "**="} {
		if p.atOp(aug) {
			p.next()
			rhs, err := p.exprOrTuple()
			if err != nil {
				return nil, err
			}
			if err := checkAssignable(lhs); err != nil {
				return nil, p.errf("%v", err)
			}
			return &AugAssignStmt{pos{t.Line}, lhs, opOf(strings.TrimSuffix(aug, "=")), rhs}, nil
		}
	}
	return &ExprStmt{pos{t.Line}, lhs}, nil
}

func checkAssignable(e Expr) error {
	switch e := e.(type) {
	case *Name, *IndexExpr, *AttrExpr, *SliceExpr:
		return nil
	case *SeqLit:
		for _, el := range e.Elems {
			if err := checkAssignable(el); err != nil {
				return err
			}
		}
		return nil
	default:
		return core.Errorf(core.KindSyntax, "cannot assign to this expression")
	}
}

func (p *Parser) importStmt() (Stmt, error) {
	t := p.next() // import
	mod, err := p.dottedName()
	if err != nil {
		return nil, err
	}
	alias := strings.SplitN(mod, ".", 2)[0]
	if p.acceptKw("as") {
		if !p.at(TokName) {
			return nil, p.errf("expected name after 'as'")
		}
		alias = p.next().Lit
	}
	return &ImportStmt{pos: pos{t.Line}, Module: mod, Alias: alias}, nil
}

func (p *Parser) fromImportStmt() (Stmt, error) {
	t := p.next() // from
	mod, err := p.dottedName()
	if err != nil {
		return nil, err
	}
	if !p.acceptKw("import") {
		return nil, p.errf("expected 'import' in from-import")
	}
	fi := &FromImportStmt{pos: pos{t.Line}, Module: mod}
	for {
		if !p.at(TokName) {
			return nil, p.errf("expected name in from-import")
		}
		name := p.next().Lit
		alias := name
		if p.acceptKw("as") {
			if !p.at(TokName) {
				return nil, p.errf("expected name after 'as'")
			}
			alias = p.next().Lit
		}
		fi.Names = append(fi.Names, [2]string{name, alias})
		if !p.acceptOp(",") {
			break
		}
	}
	return fi, nil
}

func (p *Parser) dottedName() (string, error) {
	if !p.at(TokName) {
		return "", p.errf("expected module name")
	}
	parts := []string{p.next().Lit}
	for p.atOp(".") {
		p.next()
		if !p.at(TokName) {
			return "", p.errf("expected name after '.'")
		}
		parts = append(parts, p.next().Lit)
	}
	return strings.Join(parts, "."), nil
}

func (p *Parser) ifStmt() (Stmt, error) {
	t := p.next() // if / elif
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{pos{t.Line}, cond, body, nil}
	if p.atKw("elif") {
		elif, err := p.ifStmt()
		if err != nil {
			return nil, err
		}
		st.Else = []Stmt{elif}
	} else if p.acceptKw("else") {
		els, err := p.block()
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	return st, nil
}

func (p *Parser) whileStmt() (Stmt, error) {
	t := p.next()
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{pos{t.Line}, cond, body}, nil
}

func (p *Parser) forStmt() (Stmt, error) {
	t := p.next()
	target, err := p.targetList()
	if err != nil {
		return nil, err
	}
	if !p.acceptKw("in") {
		return nil, p.errf("expected 'in' in for statement")
	}
	iter, err := p.exprOrTuple()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &ForStmt{pos{t.Line}, target, iter, body}, nil
}

// targetList parses for-loop targets: `i` or `a, b` or `(a, b)`.
func (p *Parser) targetList() (Expr, error) {
	first, err := p.primaryTarget()
	if err != nil {
		return nil, err
	}
	if !p.atOp(",") {
		return first, nil
	}
	elems := []Expr{first}
	for p.acceptOp(",") {
		if p.atKw("in") {
			break
		}
		e, err := p.primaryTarget()
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
	}
	return &SeqLit{pos{first.Pos()}, elems, true}, nil
}

func (p *Parser) primaryTarget() (Expr, error) {
	if p.atOp("(") {
		p.next()
		inner, err := p.targetList()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	e, err := p.postfix()
	if err != nil {
		return nil, err
	}
	if err := checkAssignable(e); err != nil {
		return nil, p.errf("%v", err)
	}
	return e, nil
}

func (p *Parser) defStmt() (Stmt, error) {
	t := p.next() // def
	if !p.at(TokName) {
		return nil, p.errf("expected function name")
	}
	name := p.next().Lit
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	params, err := p.paramList()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	end := t.Line
	if len(body) > 0 {
		end = body[len(body)-1].Pos()
	}
	return &DefStmt{pos: pos{t.Line}, Name: name, Params: params, Body: body, EndLine: end}, nil
}

// paramList parses parameters up to and including the closing ')'.
func (p *Parser) paramList() ([]Param, error) {
	var params []Param
	seenDefault := false
	for !p.atOp(")") {
		if !p.at(TokName) {
			return nil, p.errf("expected parameter name")
		}
		prm := Param{Name: p.next().Lit}
		if p.acceptOp("=") {
			d, err := p.expr()
			if err != nil {
				return nil, err
			}
			prm.Default = d
			seenDefault = true
		} else if seenDefault {
			return nil, p.errf("non-default parameter follows default parameter")
		}
		params = append(params, prm)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return params, nil
}

func (p *Parser) tryStmt() (Stmt, error) {
	t := p.next() // try
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	st := &TryStmt{pos: pos{t.Line}, Body: body}
	if p.acceptKw("except") {
		// Optional `except Name` / `except Name as n`; the class name is
		// accepted and ignored (PyLite has a single error type).
		if p.at(TokName) {
			p.next()
			if p.acceptKw("as") {
				if !p.at(TokName) {
					return nil, p.errf("expected name after 'as'")
				}
				st.ExcName = p.next().Lit
			}
		}
		h, err := p.block()
		if err != nil {
			return nil, err
		}
		st.Handler = h
	}
	if p.acceptKw("finally") {
		f, err := p.block()
		if err != nil {
			return nil, err
		}
		st.Finally = f
	}
	if st.Handler == nil && st.Finally == nil {
		return nil, p.errf("try statement needs except or finally")
	}
	return st, nil
}

// ---- expressions ----

// exprOrTuple parses an expression, forming a bare tuple on top-level commas
// (`a, b = f()` and `return x, y`).
func (p *Parser) exprOrTuple() (Expr, error) {
	first, err := p.expr()
	if err != nil {
		return nil, err
	}
	if !p.atOp(",") {
		return first, nil
	}
	elems := []Expr{first}
	for p.acceptOp(",") {
		if p.atNewline() || p.at(TokEOF) || p.atOp("=") || p.atOp(")") || p.atOp("]") || p.atOp("}") {
			break
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
	}
	return &SeqLit{pos{first.Pos()}, elems, true}, nil
}

// expr parses a conditional expression (ternary) or below.
func (p *Parser) expr() (Expr, error) {
	if p.atKw("lambda") {
		return p.lambda()
	}
	e, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	if p.atKw("if") {
		line := p.next().Line
		cond, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if !p.acceptKw("else") {
			return nil, p.errf("expected 'else' in conditional expression")
		}
		els, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &CondExpr{pos{line}, cond, e, els}, nil
	}
	return e, nil
}

func (p *Parser) lambda() (Expr, error) {
	t := p.next() // lambda
	var params []Param
	for !p.atOp(":") {
		if !p.at(TokName) {
			return nil, p.errf("expected parameter name in lambda")
		}
		prm := Param{Name: p.next().Lit}
		if p.acceptOp("=") {
			d, err := p.expr()
			if err != nil {
				return nil, err
			}
			prm.Default = d
		}
		params = append(params, prm)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(":"); err != nil {
		return nil, err
	}
	body, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &LambdaExpr{pos: pos{t.Line}, Params: params, Body: body}, nil
}

func (p *Parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.atKw("or") {
		line := p.next().Line
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{pos{line}, OpOr, l, r}
	}
	return l, nil
}

func (p *Parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.atKw("and") {
		line := p.next().Line
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{pos{line}, OpAnd, l, r}
	}
	return l, nil
}

func (p *Parser) notExpr() (Expr, error) {
	if p.atKw("not") {
		line := p.next().Line
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{pos{line}, OpNot, x}, nil
	}
	return p.comparison()
}

func (p *Parser) comparison() (Expr, error) {
	l, err := p.arith()
	if err != nil {
		return nil, err
	}
	var chain Expr
	prev := l
	for {
		var op Op
		switch {
		case p.atOp("=="), p.atOp("!="), p.atOp("<"), p.atOp("<="), p.atOp(">"), p.atOp(">="):
			op = opOf(p.next().Lit)
		case p.atKw("in"):
			p.next()
			op = OpIn
		case p.atKw("is"):
			p.next()
			op = OpIs
			if p.atKw("not") {
				p.next()
				op = OpIsNot
			}
		case p.atKw("not"):
			// `not in`
			p.next()
			if !p.acceptKw("in") {
				return nil, p.errf("expected 'in' after 'not'")
			}
			op = OpNotIn
		default:
			if chain != nil {
				return chain, nil
			}
			return l, nil
		}
		r, err := p.arith()
		if err != nil {
			return nil, err
		}
		cmp := &BinExpr{pos{prev.Pos()}, op, prev, r}
		if chain == nil {
			chain = cmp
		} else {
			chain = &BinExpr{pos{prev.Pos()}, OpAnd, chain, cmp}
		}
		prev = r
	}
}

func (p *Parser) arith() (Expr, error) {
	l, err := p.term()
	if err != nil {
		return nil, err
	}
	for p.atOp("+") || p.atOp("-") {
		op := p.next()
		r, err := p.term()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{pos{op.Line}, opOf(op.Lit), l, r}
	}
	return l, nil
}

func (p *Parser) term() (Expr, error) {
	l, err := p.factor()
	if err != nil {
		return nil, err
	}
	for p.atOp("*") || p.atOp("/") || p.atOp("//") || p.atOp("%") {
		op := p.next()
		r, err := p.factor()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{pos{op.Line}, opOf(op.Lit), l, r}
	}
	return l, nil
}

func (p *Parser) factor() (Expr, error) {
	if p.atOp("-") || p.atOp("+") {
		op := p.next()
		x, err := p.factor()
		if err != nil {
			return nil, err
		}
		if op.Lit == "+" {
			return x, nil
		}
		return &UnaryExpr{pos{op.Line}, OpSub, x}, nil
	}
	return p.power()
}

func (p *Parser) power() (Expr, error) {
	base, err := p.postfix()
	if err != nil {
		return nil, err
	}
	if p.atOp("**") {
		op := p.next()
		// right-associative
		exp, err := p.factor()
		if err != nil {
			return nil, err
		}
		return &BinExpr{pos{op.Line}, OpPow, base, exp}, nil
	}
	return base, nil
}

// postfix parses an atom followed by any number of calls, indexes, slices
// and attribute accesses.
func (p *Parser) postfix() (Expr, error) {
	e, err := p.atom()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atOp("("):
			line := p.next().Line
			call := &CallExpr{pos: pos{line}, Fn: e}
			for !p.atOp(")") {
				// keyword argument?
				if p.at(TokName) && p.toks[p.pos+1].Kind == TokOp && p.toks[p.pos+1].Lit == "=" {
					kw := p.next().Lit
					p.next() // =
					v, err := p.expr()
					if err != nil {
						return nil, err
					}
					call.KwName = append(call.KwName, kw)
					call.KwVal = append(call.KwVal, v)
				} else {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					if len(call.KwName) > 0 {
						return nil, p.errf("positional argument after keyword argument")
					}
					call.Args = append(call.Args, a)
				}
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			e = call
		case p.atOp("["):
			line := p.next().Line
			var lo, hi Expr
			if !p.atOp(":") {
				x, err := p.expr()
				if err != nil {
					return nil, err
				}
				lo = x
			}
			if p.acceptOp(":") {
				if !p.atOp("]") {
					x, err := p.expr()
					if err != nil {
						return nil, err
					}
					hi = x
				}
				if err := p.expectOp("]"); err != nil {
					return nil, err
				}
				e = &SliceExpr{pos{line}, e, lo, hi}
			} else {
				if err := p.expectOp("]"); err != nil {
					return nil, err
				}
				e = &IndexExpr{pos{line}, e, lo}
			}
		case p.atOp("."):
			line := p.next().Line
			if !p.at(TokName) {
				return nil, p.errf("expected attribute name after '.'")
			}
			e = &AttrExpr{pos{line}, e, p.next().Lit}
		default:
			return e, nil
		}
	}
}

func (p *Parser) atom() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.next()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer literal %q", t.Lit)
		}
		return &Lit{pos{t.Line}, IntVal(v)}, nil
	case TokFloat:
		p.next()
		v, err := strconv.ParseFloat(t.Lit, 64)
		if err != nil {
			return nil, p.errf("bad float literal %q", t.Lit)
		}
		return &Lit{pos{t.Line}, FloatVal(v)}, nil
	case TokString:
		p.next()
		val := t.Lit
		// adjacent string literal concatenation
		for p.at(TokString) {
			val += p.next().Lit
		}
		return &Lit{pos{t.Line}, StrVal(val)}, nil
	case TokName:
		p.next()
		return &Name{pos: pos{t.Line}, Ident: t.Lit}, nil
	case TokKeyword:
		switch t.Lit {
		case "True":
			p.next()
			return &Lit{pos{t.Line}, BoolVal(true)}, nil
		case "False":
			p.next()
			return &Lit{pos{t.Line}, BoolVal(false)}, nil
		case "None":
			p.next()
			return &Lit{pos{t.Line}, None}, nil
		case "lambda":
			return p.lambda()
		case "not":
			return p.notExpr()
		}
		return nil, p.errf("unexpected keyword %q", t.Lit)
	case TokOp:
		switch t.Lit {
		case "(":
			p.next()
			if p.atOp(")") {
				p.next()
				return &SeqLit{pos{t.Line}, nil, true}, nil
			}
			inner, err := p.exprOrTuple()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return inner, nil
		case "[":
			p.next()
			lst := &SeqLit{pos: pos{t.Line}}
			first := true
			for !p.atOp("]") {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				// list comprehension: [elem for target in iter if cond]
				if first && p.atKw("for") {
					p.next()
					target, err := p.targetList()
					if err != nil {
						return nil, err
					}
					if !p.acceptKw("in") {
						return nil, p.errf("expected 'in' in comprehension")
					}
					// or_test, not full expr: the trailing `if` belongs to
					// the comprehension filter, not a ternary
					iter, err := p.orExpr()
					if err != nil {
						return nil, err
					}
					comp := &CompExpr{pos: pos{t.Line}, Elem: e, Target: target, Iter: iter}
					if p.acceptKw("if") {
						cond, err := p.expr()
						if err != nil {
							return nil, err
						}
						comp.Cond = cond
					}
					if err := p.expectOp("]"); err != nil {
						return nil, err
					}
					return comp, nil
				}
				first = false
				lst.Elems = append(lst.Elems, e)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp("]"); err != nil {
				return nil, err
			}
			return lst, nil
		case "{":
			p.next()
			d := &DictLit{pos: pos{t.Line}}
			for !p.atOp("}") {
				k, err := p.expr()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(":"); err != nil {
					return nil, err
				}
				v, err := p.expr()
				if err != nil {
					return nil, err
				}
				d.Keys = append(d.Keys, k)
				d.Values = append(d.Values, v)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp("}"); err != nil {
				return nil, err
			}
			return d, nil
		}
	}
	return nil, p.errf("unexpected token %s", t)
}

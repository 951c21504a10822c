package sqlparse

import "repro/internal/core"

// ParseLiteral parses a single SQL literal (optionally sign-negated) into
// its Go value — int64, float64, string, bool, or nil for NULL. It is the
// typing rule behind cmd/mclient's -param flags: '42' binds an INTEGER,
// '4.2' a DOUBLE, "'x'" a STRING, 'true' a BOOLEAN, 'null' a NULL.
func ParseLiteral(s string) (any, error) {
	lx := &lexer{src: s}
	toks, err := lx.lex()
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if !p.at(tEOF) {
		return nil, p.errf("unexpected input after literal: %q", p.cur().lit)
	}
	return literalValue(e)
}

// ParseLiterals applies ParseLiteral to a list of -param flag values,
// producing the bind-argument slice — the one typing rule shared by the
// CLIs.
func ParseLiterals(params []string) ([]any, error) {
	if len(params) == 0 {
		return nil, nil
	}
	binds := make([]any, len(params))
	for i, p := range params {
		v, err := ParseLiteral(p)
		if err != nil {
			return nil, core.Wrapf(core.KindSyntax, err, "-param %q: %v", p, err)
		}
		binds[i] = v
	}
	return binds, nil
}

func literalValue(e Expr) (any, error) {
	switch e := e.(type) {
	case *IntLit:
		return e.Value, nil
	case *FloatLit:
		return e.Value, nil
	case *StrLit:
		return e.Value, nil
	case *BoolLit:
		return e.Value, nil
	case *NullLit:
		return nil, nil
	case *UnaryExpr:
		if e.Op == "-" {
			v, err := literalValue(e.X)
			if err != nil {
				return nil, err
			}
			switch v := v.(type) {
			case int64:
				return -v, nil
			case float64:
				return -v, nil
			}
		}
	}
	return nil, core.Errorf(core.KindSyntax, "not a SQL literal")
}

// NumParams reports how many bind parameters a parsed statement expects:
// the count of '?' placeholders, or the highest $n. The parser guarantees
// numbered placeholders are dense from $1, so this is also the argument
// count a Prepare'd statement binds.
func NumParams(st Statement) int {
	max := 0
	WalkExprs(st, func(e Expr) {
		if ph, ok := e.(*Placeholder); ok && ph.Index+1 > max {
			max = ph.Index + 1
		}
	})
	return max
}

// WalkExprs visits every expression in a statement, depth-first, including
// expressions nested inside subqueries and table-function arguments.
func WalkExprs(st Statement, fn func(Expr)) {
	switch st := st.(type) {
	case *Insert:
		for _, row := range st.Rows {
			for _, e := range row {
				walkExpr(e, fn)
			}
		}
	case *Select:
		walkSelectExprs(st, fn)
	}
}

func walkSelectExprs(sel *Select, fn func(Expr)) {
	for _, item := range sel.Items {
		if item.Expr != nil {
			walkExpr(item.Expr, fn)
		}
	}
	switch f := sel.From.(type) {
	case *FromFunc:
		walkExpr(f.Call, fn)
	case *FromSelect:
		walkSelectExprs(f.Sel, fn)
	}
	if sel.Where != nil {
		walkExpr(sel.Where, fn)
	}
	for _, e := range sel.GroupBy {
		walkExpr(e, fn)
	}
	if sel.Having != nil {
		walkExpr(sel.Having, fn)
	}
	for _, o := range sel.OrderBy {
		walkExpr(o.Expr, fn)
	}
}

func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch e := e.(type) {
	case *BinaryExpr:
		walkExpr(e.L, fn)
		walkExpr(e.R, fn)
	case *UnaryExpr:
		walkExpr(e.X, fn)
	case *IsNullExpr:
		walkExpr(e.X, fn)
	case *CastExpr:
		walkExpr(e.X, fn)
	case *FuncCall:
		for _, a := range e.Args {
			walkExpr(a, fn)
		}
	case *Subquery:
		walkSelectExprs(e.Sel, fn)
	}
}

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
	return LiteralValue(e)
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

// LiteralValue is the Go value of a literal expression, optionally
// sign-negated: int64, float64, string, bool, or nil for NULL.
func LiteralValue(e Expr) (any, error) {
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
			v, err := LiteralValue(e.X)
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
	Edit(st, func(e Expr) (Expr, bool) {
		if ph, ok := e.(*Placeholder); ok && ph.Index+1 > max {
			max = ph.Index + 1
		}
		return e, true
	})
	return max
}

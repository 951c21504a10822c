package sqlparse

// Edit is the one traversal of a statement's expressions. It calls fn on
// every expression, parents first — select items, a FROM table function's
// call and its arguments, FROM and argument subqueries, WHERE, GROUP BY,
// HAVING, ORDER BY keys, INSERT values — and puts the expression fn returns
// in the original's place. When fn answers false, Edit does not descend
// into what fn returned. A FROM clause's call may only be replaced by
// another *FuncCall. ORDER BY positions are syntax and are not visited.
func Edit(st Statement, fn func(Expr) (Expr, bool)) {
	switch st := st.(type) {
	case *Insert:
		for _, row := range st.Rows {
			for i, e := range row {
				row[i] = EditExpr(e, fn)
			}
		}
	case *Select:
		editSelect(st, fn)
	}
}

// EditExpr is Edit over one expression; it returns the new root.
func EditExpr(e Expr, fn func(Expr) (Expr, bool)) Expr {
	if e == nil {
		return nil
	}
	e, descend := fn(e)
	if !descend {
		return e
	}
	switch e := e.(type) {
	case *BinaryExpr:
		e.L, e.R = EditExpr(e.L, fn), EditExpr(e.R, fn)
	case *UnaryExpr:
		e.X = EditExpr(e.X, fn)
	case *IsNullExpr:
		e.X = EditExpr(e.X, fn)
	case *CastExpr:
		e.X = EditExpr(e.X, fn)
	case *FuncCall:
		for i, a := range e.Args {
			e.Args[i] = EditExpr(a, fn)
		}
	case *Subquery:
		editSelect(e.Sel, fn)
	}
	return e
}

func editSelect(sel *Select, fn func(Expr) (Expr, bool)) {
	for i, item := range sel.Items {
		sel.Items[i].Expr = EditExpr(item.Expr, fn)
	}
	switch f := sel.From.(type) {
	case *FromFunc:
		f.Call = EditExpr(f.Call, fn).(*FuncCall)
	case *FromSelect:
		editSelect(f.Sel, fn)
	}
	sel.Where = EditExpr(sel.Where, fn)
	for i, e := range sel.GroupBy {
		sel.GroupBy[i] = EditExpr(e, fn)
	}
	sel.Having = EditExpr(sel.Having, fn)
	for i, o := range sel.OrderBy {
		if _, pos := o.Expr.(*IntLit); !pos {
			sel.OrderBy[i].Expr = EditExpr(o.Expr, fn)
		}
	}
}

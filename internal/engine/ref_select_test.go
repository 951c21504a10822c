package engine

// refSelect is the differential suite's oracle: a deliberately naive
// SELECT that shares no skeleton with evalSelect. The source is
// materialized after WHERE by a row loop, every expression is walked over
// whole materialized columns by the row-at-a-time kernels of
// ref_kernels_test.go, each group is its own table, groups and DISTINCT
// key on formatted strings, LIMIT is an index gather. There are no
// selection vectors, no fused filter, no memoized views, no morsels and
// no plan cache, so a bug in any of those shows up as a disagreement.
//
// The oracle may call production code only for what is not under
// differential test: the catalog, UDF and builtin invocation on argument
// columns it evaluated itself, bind slots, castColumn, compareAt,
// truthyAt, itemName and the syntactic AST predicates.
// TestOracleCallsOnlyAllowedCode enforces the list.
//
// Its functions return values, not errors: a failure anywhere unwinds to
// refExec as a panic carrying the error, which keeps the walk as short as
// the semantics it states.

import (
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

type refFailure struct{ err error }

func must[T any](v T, err error) T {
	if err != nil {
		panic(refFailure{err})
	}
	return v
}

func check(err error) { must(0, err) }

func fail(kind core.ErrorKind, format string, args ...any) {
	panic(refFailure{core.Errorf(kind, format, args...)})
}

// refExec parses one SELECT and runs it through the oracle with the given
// bind arguments installed, the way Stmt.ExecWith installs them.
func refExec(c *Conn, sql string, binds ...any) (t *storage.Table, err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case refFailure:
			t, err = nil, r.err
		default:
			panic(r)
		}
	}()
	sel, ok := must(sqlparse.Parse(sql)).(*sqlparse.Select)
	if !ok {
		fail(core.KindSyntax, "the oracle runs SELECT only")
	}
	f := &frame{Conn: c}
	for _, v := range binds {
		f.binds = append(f.binds, must(storage.BindValue(v)))
	}
	return refSelect(f, sel), nil
}

func refSelect(f *frame, sel *sqlparse.Select) *storage.Table {
	src := refFrom(f, sel.From)
	if sel.Where != nil && src != nil {
		src = refWhere(f, src, sel.Where)
	}
	var result *storage.Table
	switch {
	case len(sel.GroupBy) > 0 || hasAggregate(sel.Items):
		result = refAggregateSelect(f, sel, src)
	case sel.Having != nil:
		fail(core.KindSyntax, "HAVING requires GROUP BY or aggregates")
	default:
		result = refProject(f, sel, src)
	}
	if sel.Distinct {
		result = scalarGatherTable(result, scalarDistinctIdx(result))
	}
	if len(sel.OrderBy) > 0 {
		result = refOrder(f, sel, result, src)
	}
	if sel.Limit >= 0 && int64(result.NumRows()) > sel.Limit {
		result = scalarGatherTable(result, identity(int(sel.Limit)))
	}
	return result
}

func identity(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

func emptyOf(t *storage.Table) *storage.Table { return storage.NewTable(t.Name, t.Schema()) }

func refFrom(f *frame, from sqlparse.FromClause) *storage.Table {
	switch from := from.(type) {
	case nil:
		return nil
	case *sqlparse.FromTable:
		if t, ok := f.queryLogTable(from.Name); ok {
			return t
		}
		return must(f.DB.cat.Table(from.Name))
	case *sqlparse.FromSelect:
		return refSelect(f, from.Sel)
	case *sqlparse.FromFunc:
		if strings.EqualFold(from.Call.Name, extractFuncName) {
			return must(f.evalExtract(from.Call))
		}
		def := must(f.DB.cat.Function(from.Call.Name))
		args, isColumn := refUDFArgs(f, nil, from.Call.Args)
		return must(f.callTableUDF(def, args, isColumn))
	}
	fail(core.KindSyntax, "unsupported FROM clause %T", from)
	return nil
}

// refWhere keeps the rows whose predicate is truthy, one row at a time,
// and materializes them; a length-1 predicate is a constant.
func refWhere(f *frame, src *storage.Table, where sqlparse.Expr) *storage.Table {
	pred := refExpr(f, src, where)
	if pred.Len() == 1 && src.NumRows() != 1 {
		if truthyAt(pred, 0) {
			return src
		}
		return emptyOf(src)
	}
	var idx []int32
	for i := 0; i < pred.Len(); i++ {
		if truthyAt(pred, i) {
			idx = append(idx, int32(i))
		}
	}
	return scalarGatherTable(src, idx)
}

// refProject copies every output column, so no two result columns and no
// result and source column ever share an object, then broadcasts
// length-1 columns to the longest.
func refProject(f *frame, sel *sqlparse.Select, src *storage.Table) *storage.Table {
	out := &storage.Table{Name: "result"}
	n := 0
	for i, item := range sel.Items {
		if item.Star {
			if src == nil {
				fail(core.KindSyntax, "SELECT * requires a FROM clause")
			}
			out.Cols = append(out.Cols, src.Clone().Cols...)
			n = max(n, src.NumRows())
			continue
		}
		col := refExpr(f, src, item.Expr).Clone()
		col.Name = itemName(item, i)
		out.Cols = append(out.Cols, col)
		n = max(n, col.Len())
	}
	for i, col := range out.Cols {
		if col.Len() != n && col.Len() != 1 {
			fail(core.KindConstraint, "projection columns have mismatched lengths (%d vs %d)", col.Len(), n)
		}
		out.Cols[i] = refBroadcast(col, n)
	}
	return out
}

// refBroadcast repeats a length-1 column n times.
func refBroadcast(col *storage.Column, n int) *storage.Column {
	if col.Len() != 1 || n <= 1 {
		return col
	}
	return scalarGatherTable(&storage.Table{Cols: []*storage.Column{col}}, make([]int32, n)).Cols[0]
}

// refAggregateSelect materializes each group as its own table and
// evaluates every item over it.
func refAggregateSelect(f *frame, sel *sqlparse.Select, src *storage.Table) *storage.Table {
	if src == nil {
		fail(core.KindSyntax, "aggregates require a FROM clause")
	}
	having := func(g *storage.Table) bool {
		return sel.Having == nil || truthyAt(refGroupItem(f, g, sel.Having), 0)
	}
	var groups []*storage.Table
	if n := src.NumRows(); len(sel.GroupBy) == 0 {
		// ungrouped aggregates yield one row even over no rows, or when
		// HAVING rejects the one group: computed over an empty table
		if n > 0 && !having(src) {
			src = emptyOf(src)
		}
		groups = []*storage.Table{src}
	} else {
		keys := make([]*storage.Column, len(sel.GroupBy))
		for i, e := range sel.GroupBy {
			keys[i] = refBroadcast(refExpr(f, src, e), n)
		}
		if n > 0 {
			for _, rows := range scalarGroupRows(keys, n) {
				if g := scalarGatherTable(src, rows); having(g) {
					groups = append(groups, g)
				}
			}
		}
	}
	// with no group, the items still evaluate once over no rows for their
	// types and errors; that row is dropped
	none := len(groups) == 0
	if none {
		groups = []*storage.Table{emptyOf(src)}
	}
	out := &storage.Table{Name: "result"}
	for gi, g := range groups {
		for i, item := range sel.Items {
			if item.Star {
				fail(core.KindSyntax, "SELECT * is not valid in an aggregate query")
			}
			val := refGroupItem(f, g, item.Expr)
			if gi == 0 {
				out.Cols = append(out.Cols, storage.NewColumn(itemName(item, i), val.Typ))
			}
			if val.IsNull(0) {
				out.Cols[i].AppendNull()
			} else {
				check(out.Cols[i].AppendValue(val.Value(0)))
			}
		}
	}
	if none {
		return scalarGatherTable(out, nil)
	}
	return out
}

// refGroupItem reduces one expression over a group table to a single
// value: aggregates fold the group, operators over aggregates combine the
// folded operands, anything else is taken from the group's first row
// (NULL for an empty group).
func refGroupItem(f *frame, g *storage.Table, e sqlparse.Expr) *storage.Column {
	switch e := e.(type) {
	case *sqlparse.BinaryExpr:
		if sqlparse.HasAggregate(e) {
			return must(scalarEvalBinary(e.Op, refGroupItem(f, g, e.L), refGroupItem(f, g, e.R)))
		}
	case *sqlparse.UnaryExpr:
		if sqlparse.HasAggregate(e) {
			return must(scalarEvalUnary(e.Op, refGroupItem(f, g, e.X)))
		}
	}
	val := refExpr(f, g, e)
	if val.Len() == 0 {
		null := storage.NewColumn("", val.Typ)
		null.AppendNull()
		return null
	}
	return scalarGatherTable(&storage.Table{Cols: []*storage.Column{val}}, []int32{0}).Cols[0]
}

// refAggregate folds one aggregate call over a whole table.
func refAggregate(f *frame, t *storage.Table, call *sqlparse.FuncCall) *storage.Column {
	if t == nil {
		fail(core.KindSyntax, "aggregate %s requires a FROM clause", call.Name)
	}
	name := strings.ToLower(call.Name)
	if name == "count" && call.Star {
		return must(scalarAggregateOver(name, nil, true, t.NumRows()))
	}
	if len(call.Args) != 1 {
		fail(core.KindType, "%s expects exactly one argument", strings.ToUpper(name))
	}
	return must(scalarAggregateOver(name, refExpr(f, t, call.Args[0]), false, t.NumRows()))
}

// refOrder sorts the result by the ORDER BY keys: output columns by
// position or name first, else an expression over the source when it
// still lines up with the result row for row. NULLs sort first.
func refOrder(f *frame, sel *sqlparse.Select, result, src *storage.Table) *storage.Table {
	n := result.NumRows()
	keys := make([]*storage.Column, len(sel.OrderBy))
	for ki, item := range sel.OrderBy {
		if lit, ok := item.Expr.(*sqlparse.IntLit); ok {
			if lit.Value < 1 || lit.Value > int64(len(result.Cols)) {
				fail(core.KindConstraint, "ORDER BY position %d out of range", lit.Value)
			}
			keys[ki] = result.Cols[lit.Value-1]
			continue
		}
		if ref, ok := item.Expr.(*sqlparse.ColRef); ok {
			if col, err := result.Column(ref.Name); err == nil {
				keys[ki] = col
				continue
			}
		}
		if src == nil || src.NumRows() != n {
			fail(core.KindConstraint, "ORDER BY expression must reference an output column")
		}
		keys[ki] = refBroadcast(refExpr(f, src, item.Expr), n)
	}
	idx := identity(n)
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := int(idx[a]), int(idx[b])
		for ki, key := range keys {
			cmp := 0
			switch an, bn := key.IsNull(ia), key.IsNull(ib); {
			case an && bn:
			case an:
				cmp = -1
			case bn:
				cmp = 1
			default:
				cmp = must(compareAt(key, ia, key, ib))
			}
			if sel.OrderBy[ki].Desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return scalarGatherTable(result, idx)
}

// refExpr evaluates an expression over a whole materialized table (nil
// for FROM-less selects), returning a column of the table's row count or
// of length 1 for a constant.
func refExpr(f *frame, t *storage.Table, e sqlparse.Expr) *storage.Column {
	lit := func(typ storage.Type, v any) *storage.Column {
		col := storage.NewColumn("", typ)
		if v == nil {
			col.AppendNull()
			return col
		}
		check(col.AppendValue(v))
		return col
	}
	switch e := e.(type) {
	case *sqlparse.IntLit:
		return lit(storage.TInt, e.Value)
	case *sqlparse.FloatLit:
		return lit(storage.TFloat, e.Value)
	case *sqlparse.StrLit:
		return lit(storage.TStr, e.Value)
	case *sqlparse.BoolLit:
		return lit(storage.TBool, e.Value)
	case *sqlparse.NullLit:
		return lit(storage.TStr, nil)
	case *sqlparse.Placeholder:
		return must(f.bindColumn(e))
	case *sqlparse.ColRef:
		if t == nil {
			fail(core.KindName, "no FROM clause to resolve column %q", e.Name)
		}
		return must(t.Column(e.Name))
	case *sqlparse.UnaryExpr:
		return must(scalarEvalUnary(e.Op, refExpr(f, t, e.X)))
	case *sqlparse.BinaryExpr:
		return must(scalarEvalBinary(e.Op, refExpr(f, t, e.L), refExpr(f, t, e.R)))
	case *sqlparse.IsNullExpr:
		x := refExpr(f, t, e.X)
		out := storage.NewColumn("", storage.TBool)
		for i := 0; i < x.Len(); i++ {
			out.AppendBool(x.IsNull(i) != e.Neg)
		}
		return out
	case *sqlparse.CastExpr:
		// a row at a time through a boxed value, not the engine's cell copy
		x, out := refExpr(f, t, e.X), storage.NewColumn("", e.To)
		for i := 0; i < x.Len(); i++ {
			check(out.AppendValue(x.Value(i)))
		}
		return out
	case *sqlparse.FuncCall:
		return refCall(f, t, e)
	case *sqlparse.Subquery:
		sub := refSelect(f, e.Sel)
		if len(sub.Cols) != 1 || sub.NumRows() != 1 {
			fail(core.KindConstraint, "scalar subquery must return one row and one column (got %dx%d)",
				sub.NumRows(), len(sub.Cols))
		}
		return sub.Cols[0]
	}
	fail(core.KindSyntax, "unsupported expression %T", e)
	return nil
}

// refCall evaluates the arguments itself and hands the finished columns
// to the production builtin or UDF runtime.
func refCall(f *frame, t *storage.Table, call *sqlparse.FuncCall) *storage.Column {
	name := strings.ToLower(call.Name)
	if sqlparse.IsAggregate(name) {
		return refAggregate(f, t, call)
	}
	if fn, ok := scalarBuiltins[name]; ok {
		args := make([]*storage.Column, len(call.Args))
		for i, a := range call.Args {
			args[i] = refExpr(f, t, a)
		}
		return must(fn(args))
	}
	if name == extractFuncName {
		fail(core.KindConstraint, "%s is table-valued; use it in FROM", extractFuncName)
	}
	if !f.DB.cat.HasFunction(call.Name) {
		fail(core.KindName, "no such function: %s", call.Name)
	}
	args, isColumn := refUDFArgs(f, t, call.Args)
	return must(f.callScalarUDF(call.Name, args, isColumn))
}

// refUDFArgs evaluates UDF arguments; a subquery argument expands into
// one columnar argument per output column.
func refUDFArgs(f *frame, t *storage.Table, args []sqlparse.Expr) (cols []*storage.Column, isColumn []bool) {
	for _, a := range args {
		if sub, ok := a.(*sqlparse.Subquery); ok {
			for _, col := range refSelect(f, sub.Sel).Cols {
				cols, isColumn = append(cols, col), append(isColumn, true)
			}
			continue
		}
		cols, isColumn = append(cols, refExpr(f, t, a)), append(isColumn, exprIsColumnar(a))
	}
	return cols, isColumn
}

package engine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/engine/vec"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/transform"
	"repro/internal/udfrt"
)

// evalSelect executes a SELECT and materializes its result table.
//
// The vectorized pipeline: WHERE produces a selection vector over the
// source (fused compare-select kernels when the predicate is
// column-vs-constant conjuncts), which projection and aggregation consume
// lazily — filtered rows materialize once per referenced column at result
// build, never as an intermediate table. An aggregate may fold an
// expression argument morsel by morsel on the workers (foldGroup), calling
// an element-wise GO UDF under it once per morsel; a constant argument
// counts every row. An ungrouped aggregate whose WHERE is one such
// conjunct builds no selection: lazyFilter counts the rows, foldGroup
// fills each morsel of them. LIMIT slices the result columns in place.
func (f *frame) evalSelect(sel *sqlparse.Select) (*storage.Table, error) {
	src, err := f.evalFrom(sel.From)
	if err != nil {
		return nil, err
	}
	if m := f.DB.metrics; m != nil && src != nil {
		m.rowsScanned.Add(uint64(src.NumRows()))
	}
	// Pipeline-stage interrupt checkpoints: an armed interrupt stops morsel
	// kernels mid-run (vec.Pol.Stop), which leaves well-formed but
	// incomplete outputs — so each stage's result must be discarded here
	// before the next stage consumes it.
	if err := f.interruptErr(); err != nil {
		return nil, err
	}

	// WHERE; the checkpoint after it keeps a stopped count from sizing a fold
	var selv []int32
	var lazy *vec.Counted
	if sel.Where != nil && src != nil {
		if lazy = f.lazyFilter(sel, src); lazy == nil {
			src, selv, err = f.filter(src, sel.Where)
		}
		if err != nil {
			return nil, err
		}
		if err := f.interruptErr(); err != nil {
			return nil, err
		}
	}

	var result *storage.Table
	if len(sel.GroupBy) > 0 || hasAggregate(sel.Items) {
		result, err = f.evalAggregateSelect(sel, src, selv, lazy)
	} else {
		if sel.Having != nil {
			return nil, core.Errorf(core.KindSyntax, "HAVING requires GROUP BY or aggregates")
		}
		result, err = f.project(sel, src, selv)
	}
	if err != nil {
		return nil, err
	}
	if err := f.interruptErr(); err != nil {
		return nil, err
	}

	if sel.Distinct {
		result = f.distinctRows(result)
		if err := f.interruptErr(); err != nil {
			return nil, err
		}
	}

	// ORDER BY
	if len(sel.OrderBy) > 0 {
		if err := f.orderResult(sel, result, src, selv); err != nil {
			return nil, err
		}
		if err := f.interruptErr(); err != nil {
			return nil, err
		}
	}

	// LIMIT
	if sel.Limit >= 0 && int64(result.NumRows()) > sel.Limit {
		// slice the result columns directly; no gather copy — but when
		// the limit keeps only a small prefix, copy it so the result
		// does not pin the full backing arrays for its lifetime
		limit := int(sel.Limit)
		if limit*2 < result.NumRows() {
			result = result.SliceRows(0, limit).Clone()
		} else {
			result = result.SliceRows(0, limit)
		}
	}
	if m := f.DB.metrics; m != nil {
		m.rowsReturned.Add(uint64(result.NumRows()))
	}
	return result, nil
}

// filter evaluates the WHERE clause into a selection vector (or an empty
// source table for a false constant predicate).
func (f *frame) filter(src *storage.Table, where sqlparse.Expr) (*storage.Table, []int32, error) {
	if selv, ok, err := f.tryFilterFast(src, where); err != nil {
		return nil, nil, err
	} else if ok {
		return src, selv, nil
	}
	ctx := newCtx(src, nil)
	pred, err := f.evalExpr(ctx, where)
	if err != nil {
		return nil, nil, err
	}
	if pred.Len() == 1 && src.NumRows() != 1 {
		// constant predicate broadcast
		if !truthyAt(pred, 0) {
			return emptyLike(src), nil, nil
		}
		return src, nil, nil
	}
	return src, vec.SelectTruthy(f.pol(), pred), nil
}

// fastConjunct is one WHERE conjunct of the fused filter shape:
// column <cmp> literal.
type fastConjunct struct {
	op  vec.CmpOp
	col *storage.Column
	lit *storage.Column
}

// tryFilterFast recognizes WHERE clauses that are AND-conjunctions of
// column-vs-literal comparisons and evaluates them as fused
// compare-select kernels — no intermediate boolean column — intersecting
// the conjunct selections. ok=false falls back to the generic predicate
// path without having run any kernel.
func (f *frame) tryFilterFast(src *storage.Table, where sqlparse.Expr) ([]int32, bool, error) {
	plan := f.fastPlan(src, where)
	if len(plan) == 0 {
		return nil, false, nil
	}
	p := f.pol()
	var selv []int32
	for _, fc := range plan {
		if selv != nil && len(selv) == 0 {
			break // an empty intersection stays empty; skip the dead scans
		}
		s, handled := vec.SelectCompareConst(p, fc.op, fc.col, fc.lit)
		if !handled {
			return nil, false, nil
		}
		if selv == nil {
			selv = s
		} else {
			selv = vec.Intersect(selv, s)
		}
	}
	return selv, true, nil
}

// fastPlan validates every conjunct of the fused filter shape before any
// kernel runs, or answers nil.
func (f *frame) fastPlan(src *storage.Table, where sqlparse.Expr) []fastConjunct {
	var conjs []sqlparse.Expr
	var flatten func(e sqlparse.Expr)
	flatten = func(e sqlparse.Expr) {
		if b, ok := e.(*sqlparse.BinaryExpr); ok && b.Op == "AND" {
			flatten(b.L)
			flatten(b.R)
			return
		}
		conjs = append(conjs, e)
	}
	flatten(where)
	plan := make([]fastConjunct, 0, len(conjs))
	for _, e := range conjs {
		b, ok := e.(*sqlparse.BinaryExpr)
		if !ok || !isCmpOp(b.Op) {
			return nil
		}
		op := cmpOpOf(b.Op)
		refE, litE := b.L, b.R
		ref, isRef := refE.(*sqlparse.ColRef)
		if !isRef {
			refE, litE = b.R, b.L
			ref, isRef = refE.(*sqlparse.ColRef)
			if !isRef {
				return nil
			}
			op = op.Mirror()
		}
		lit, ok := f.literalColumn(litE)
		if !ok {
			return nil
		}
		col, err := src.Column(ref.Name)
		if err != nil {
			return nil // generic path surfaces the name error
		}
		if !vec.Fusable(col, lit) {
			return nil
		}
		plan = append(plan, fastConjunct{op: op, col: col, lit: lit})
	}
	return plan
}

// lazyFilter is a filtered aggregate's first pass: for an ungrouped SELECT
// without HAVING or ORDER BY whose columns are all under aggregates that
// foldGroup folds, and a WHERE of one fused conjunct, it counts the rows
// (storing none) that foldGroup fills morsel by morsel; else nil.
func (f *frame) lazyFilter(sel *sqlparse.Select, src *storage.Table) *vec.Counted {
	if len(sel.GroupBy) > 0 || sel.Having != nil || len(sel.OrderBy) > 0 || !hasAggregate(sel.Items) {
		return nil
	}
	if b, ok := sel.Where.(*sqlparse.BinaryExpr); ok && b.Op == "AND" {
		return nil
	}
	if _, all := f.foldCalls(sel.Items, true); !all {
		return nil
	}
	if plan := f.fastPlan(src, sel.Where); len(plan) == 1 {
		return vec.CountCompareConst(f.pol(), plan[0].op, plan[0].col, plan[0].lit)
	}
	return nil
}

func isCmpOp(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

// literalColumn builds a length-1 column from a literal expression or a
// bound placeholder, optionally sign-negated, or reports that the
// expression is not a plain literal. Bound placeholders qualify so a
// prepared filter — and ad-hoc text, whose literals are binds — takes the
// same fused compare-select kernels as its literal equivalent.
func (f *frame) literalColumn(e sqlparse.Expr) (*storage.Column, bool) {
	switch e := e.(type) {
	case *sqlparse.Placeholder:
		col, err := f.bindColumn(e)
		if err != nil {
			return nil, false
		}
		return col, true
	case *sqlparse.IntLit, *sqlparse.FloatLit, *sqlparse.StrLit, *sqlparse.BoolLit, *sqlparse.NullLit:
		col, err := f.evalExpr(nil, e)
		return col, err == nil
	case *sqlparse.UnaryExpr:
		if e.Op != "-" {
			return nil, false
		}
		x, ok := f.literalColumn(e.X)
		if !ok {
			return nil, false
		}
		neg, err := vec.Neg(vec.Pol{}, x)
		return neg, err == nil
	}
	return nil, false
}

// evalFrom materializes the FROM source, or nil for FROM-less selects.
func (f *frame) evalFrom(from sqlparse.FromClause) (*storage.Table, error) {
	switch from := from.(type) {
	case nil:
		return nil, nil
	case *sqlparse.FromTable:
		// sys.query_log is engine-level (it reads the observability ring,
		// which storage cannot depend on), unlike the catalog's sys.* meta
		// tables.
		if t, ok := f.queryLogTable(from.Name); ok {
			return t, nil
		}
		t, err := f.DB.cat.Table(from.Name)
		if err != nil {
			return nil, err
		}
		return t, nil
	case *sqlparse.FromSelect:
		return f.evalSelect(from.Sel)
	case *sqlparse.FromFunc:
		return f.evalTableFunc(from.Call)
	default:
		return nil, core.Errorf(core.KindSyntax, "unsupported FROM clause %T", from)
	}
}

// evalTableFunc executes a table-valued function in FROM: sys_extract or a
// Python table UDF.
func (f *frame) evalTableFunc(call *sqlparse.FuncCall) (*storage.Table, error) {
	if strings.EqualFold(call.Name, transform.ExtractFuncName) {
		return f.evalExtract(call)
	}
	def, err := f.DB.cat.Function(call.Name)
	if err != nil {
		return nil, err
	}
	ctx := newCtx(nil, nil)
	argCols, isColumn, err := f.udfArgColumns(ctx, call.Args)
	if err != nil {
		return nil, err
	}
	return f.callTableUDF(def, argCols, isColumn)
}

// project evaluates the projection list of a non-aggregate select. Bare
// column references materialize straight off the selection vector; other
// expressions evaluate over the lazily-gathered view.
func (f *frame) project(sel *sqlparse.Select, src *storage.Table, selv []int32) (*storage.Table, error) {
	ctx := newCtx(src, selv)
	out := &storage.Table{Name: "result"}
	usedViews := map[*storage.Column]bool{}
	for i, item := range sel.Items {
		if item.Star {
			if src == nil {
				return nil, core.Errorf(core.KindSyntax, "SELECT * requires a FROM clause")
			}
			for _, col := range src.Cols {
				if selv != nil {
					v := ctx.view(col)
					if usedViews[v] {
						v = v.Clone()
					}
					usedViews[v] = true
					out.Cols = append(out.Cols, v)
				} else {
					out.Cols = append(out.Cols, col.Clone())
				}
			}
			continue
		}
		var named *storage.Column
		if ref, ok := item.Expr.(*sqlparse.ColRef); ok && src != nil {
			base, err := src.Column(ref.Name)
			if err != nil {
				return nil, err
			}
			if selv != nil {
				// reuse the context's memoized gather (an expression item
				// referencing the same column shares it); clone when the
				// same view already sits in the result or an alias would
				// rename the shared object
				v := ctx.view(base)
				if usedViews[v] || itemName(item, i) != v.Name {
					v = v.Clone()
				}
				usedViews[v] = true
				named = v
			} else {
				named = base.Clone()
			}
		} else {
			col, err := f.evalExpr(ctx, item.Expr)
			if err != nil {
				return nil, err
			}
			if _, isSub := item.Expr.(*sqlparse.Subquery); isSub {
				// subquery results alias the subselect's table; copy
				col = col.Clone()
			}
			named = col
		}
		named.Name = itemName(item, i)
		out.Cols = append(out.Cols, named)
	}
	if err := out.Broadcast(); err != nil {
		return nil, err
	}
	return out, nil
}

func itemName(item sqlparse.SelectItem, i int) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch e := item.Expr.(type) {
	case *sqlparse.ColRef:
		return e.Name
	case *sqlparse.FuncCall:
		return strings.ToLower(e.Name)
	default:
		return fmt.Sprintf("col%d", i+1)
	}
}

// ---- aggregates ----

func hasAggregate(items []sqlparse.SelectItem) bool {
	for _, it := range items {
		if it.Expr != nil && sqlparse.HasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// aggregateOver computes one aggregate call over the context's logical
// view, returning a length-1 column: foldGroup's result, or foldMorsel's
// over the whole view through the shared context, so several aggregates
// over the same filtered column materialize it once. An argument that
// references no column stands for its value on every row of the view.
func (f *frame) aggregateOver(ctx *evalCtx, call *sqlparse.FuncCall) (*storage.Column, error) {
	if ctx.src == nil {
		return nil, core.Errorf(core.KindSyntax, "aggregate %s requires a FROM clause", call.Name)
	}
	name := strings.ToLower(call.Name)
	if name == "count" && call.Star {
		out := storage.NewColumn("", storage.TInt)
		out.AppendInt(int64(ctx.rows()))
		return out, nil
	}
	if len(call.Args) != 1 {
		return nil, core.Errorf(core.KindType, "%s expects exactly one argument", strings.ToUpper(name))
	}
	if col, ok := ctx.folded[call]; ok {
		return col, nil
	}
	part, err := f.foldMorsel(ctx, f.pol(), name, call.Args[0])
	if err != nil {
		return nil, err
	}
	return mergeParts(name, []aggPart{part})
}

// aggPart is an aggregate's partial over one morsel: the argument's type,
// SUM/AVG's sums (numeric: the argument is), the non-NULL rows' count, and
// MIN/MAX's extremum as a one-row column, NULL when the morsel has none.
type aggPart struct {
	typ         storage.Type
	numeric     bool
	isum, count int64
	fsum        float64
	best        *storage.Column
}

// mergeParts merges an aggregate's partials in morsel order into its
// length-1 result: the sums add as the kernels add their own morsels', and
// MIN/MAX keep the earliest extremum among the morsels' extrema.
func mergeParts(name string, parts []aggPart) (*storage.Column, error) {
	if name == "min" || name == "max" {
		cands := storage.NewColumn("", parts[0].best.Typ)
		for _, pt := range parts {
			if err := cands.AppendCell(pt.best, 0); err != nil {
				return nil, err
			}
		}
		best, err := vec.MinMaxIdx(vec.Serial, cands, nil, name == "min")
		if err != nil {
			return nil, err
		}
		return parts[max(best, 0)].best, nil
	}
	sum := aggPart{typ: parts[0].typ, numeric: parts[0].numeric}
	for _, pt := range parts {
		sum.isum += pt.isum
		sum.fsum += pt.fsum
		sum.count += pt.count
	}
	out := storage.NewColumn("", storage.TFloat)
	if name == "count" || (name == "sum" && sum.typ == storage.TInt) {
		out.Typ = storage.TInt
	}
	switch {
	case name == "count":
		out.AppendInt(sum.count)
	case !sum.numeric && sum.count > 0:
		// non-numeric input errors only if a row would actually evaluate
		// (NULL rows are skipped before the type check)
		return nil, core.Errorf(core.KindType, "%s needs numeric input", strings.ToUpper(name))
	case sum.count == 0:
		out.AppendNull()
	case name == "avg":
		out.AppendFloat(sum.fsum / float64(sum.count))
	case sum.typ == storage.TInt:
		out.AppendInt(sum.isum)
	default:
		out.AppendFloat(sum.fsum)
	}
	return out, nil
}

// foldGroup folds the group's aggregates over a morselSafe expression
// (over a lazy filter, which only a fold can read, every one but COUNT(*))
// into ctx.folded when the view spans two morsels or is a lazy filter's.
// At any worker count the rows split into the kernels' own morsels of the
// view, so each partial covers what it covers over a built selection. A
// worker gathers a column once per morsel for all arguments, into its own
// buffers (fillMorsel), and reduces each argument to a partial before the
// next morsel reuses them. The partials merge in morsel order.
func (f *frame) foldGroup(ctx *evalCtx, items []sqlparse.SelectItem) error {
	p, n := f.pol(), ctx.rows()
	if ctx.lazy != nil && n == 0 {
		// no row qualifies: the empty whole view types every aggregate
		ctx.lazy, ctx.sel = nil, []int32{}
	}
	if ctx.lazy == nil && n < 2*p.Morsel() {
		return nil
	}
	calls, _ := f.foldCalls(items, ctx.lazy != nil)
	if len(calls) == 0 {
		return nil
	}
	nm := p.NumMorsels(n)
	parts, errs := make([]aggPart, len(calls)*nm), make([]error, len(calls)*nm)
	workers := make(chan *evalCtx, min(p.NumWorkers(), nm))
	for range cap(workers) {
		mc := &evalCtx{src: ctx.src}
		if ctx.lazy != nil {
			mc.sel = make([]int32, 0, min(p.Morsel(), n))
		}
		workers <- mc
	}
	view := *ctx // the workers' copy: ctx itself stays off the heap
	p.RunIdx(n, func(m, lo, hi int) {
		mc := <-workers
		view.fillMorsel(mc, lo, hi)
		for c, call := range calls {
			parts[c*nm+m], errs[c*nm+m] = f.foldMorsel(mc, p, strings.ToLower(call.Name), call.Args[0])
		}
		workers <- mc
	})
	// A stopped run leaves the unclaimed morsels' partials empty.
	if err := f.interruptErr(); err != nil {
		return err
	}
	ctx.folded = make(map[*sqlparse.FuncCall]*storage.Column, len(calls))
	for c, call := range calls {
		// Every morsel ran to its end, so the earliest morsel decides,
		// whichever worker failed first.
		for _, err := range errs[c*nm : (c+1)*nm] {
			if err != nil {
				return err
			}
		}
		col, err := mergeParts(strings.ToLower(call.Name), parts[c*nm:(c+1)*nm])
		if err != nil {
			return err
		}
		ctx.folded[call] = col
	}
	return nil
}

// fillMorsel points mc, a worker's context, at the logical rows [lo,hi)
// of ctx's view (filled into mc's buffer from a lazy filter) and refills in
// place what mc gathered for its last morsel: the arguments are the same.
func (ctx *evalCtx) fillMorsel(mc *evalCtx, lo, hi int) {
	switch {
	case ctx.lazy != nil:
		mc.sel = mc.sel[:hi-lo]
		ctx.lazy.Fill(mc.sel, lo)
	case ctx.sel != nil:
		mc.sel = ctx.sel[lo:hi]
	default:
		mc.src = ctx.src.SliceRows(lo, hi)
	}
	for col, g := range mc.gathered {
		col.GatherInto(g, mc.sel)
	}
}

// foldCalls lists the items' aggregates outside subqueries that foldGroup
// folds: over a morselSafe expression, or a bare column if lazy. all: every
// other one is COUNT(*), and no column, subquery or * is outside them.
func (f *frame) foldCalls(items []sqlparse.SelectItem, lazy bool) (calls []*sqlparse.FuncCall, all bool) {
	all = true
	for _, item := range items {
		if item.Star {
			all = false
			continue
		}
		sqlparse.EditExpr(item.Expr, func(x sqlparse.Expr) (sqlparse.Expr, bool) {
			call, ok := x.(*sqlparse.FuncCall)
			if !ok || !sqlparse.IsAggregate(call.Name) {
				_, sub := x.(*sqlparse.Subquery)
				_, ref := x.(*sqlparse.ColRef)
				all = all && !sub && !ref
				return x, !sub
			}
			switch {
			case call.Star && len(call.Args) == 0 && strings.EqualFold(call.Name, "count"):
			case len(call.Args) != 1:
				all = false
			default:
				if _, ref := call.Args[0].(*sqlparse.ColRef); ref && lazy || !ref && f.morselSafe(call.Args[0]) {
					calls = append(calls, call)
				} else {
					all = all && ref
				}
			}
			return x, false
		})
	}
	return calls, all
}

// foldMorsel reduces an aggregate's argument over a morsel, or the whole
// view, into a partial with the kernels (which split it into their own
// morsels under p): a bare column unmaterialized (base plus selection),
// any other argument evaluated first, a constant one broadcast.
func (f *frame) foldMorsel(ctx *evalCtx, p vec.Pol, name string, arg sqlparse.Expr) (pt aggPart, err error) {
	var col *storage.Column
	sel := ctx.sel
	if ref, ok := arg.(*sqlparse.ColRef); ok {
		col, err = ctx.src.Column(ref.Name)
	} else {
		col, err = f.evalExpr(ctx, arg)
		sel = nil
	}
	if err != nil {
		return pt, err
	}
	if n := ctx.rows(); col.Len() == 1 && n != 1 && !exprIsColumnar(arg) {
		col = col.BroadcastTo(n)
	}
	pt.typ = col.Typ
	switch name {
	case "count":
		pt.count = vec.CountNotNull(p, col, sel)
	case "sum", "avg":
		pt.isum, pt.fsum, pt.count, pt.numeric = vec.SumCount(p, col, sel)
		if !pt.numeric {
			pt.count = vec.CountNotNull(p, col, sel)
		}
	case "min", "max":
		best, err := vec.MinMaxIdx(p, col, sel, name == "min")
		if err != nil {
			return pt, err
		}
		pt.best = storage.NewColumn("", col.Typ)
		if best < 0 {
			pt.best.AppendNull()
		} else if err := pt.best.AppendCell(col, best); err != nil {
			return pt, err
		}
	}
	return pt, nil
}

// morselSafe reports whether an aggregate's argument is built from columns,
// literals, binds, operators, casts, builtins and element-wise UDFs
// (udfrt.ParallelSafe). It compiles them on the statement's goroutine, so
// that the workers folding it only read the compiled-callable cache.
func (f *frame) morselSafe(arg sqlparse.Expr) bool {
	safe := true
	sqlparse.EditExpr(arg, func(x sqlparse.Expr) (sqlparse.Expr, bool) {
		switch x := x.(type) {
		case *sqlparse.Subquery:
			safe = false
		case *sqlparse.FuncCall:
			name := strings.ToLower(x.Name)
			if _, ok := scalarBuiltins[name]; !ok {
				def, err := f.DB.cat.Function(name)
				safe = err == nil && !sqlparse.IsAggregate(name)
				if safe {
					call, _ := f.callableFor(def) // nil when it does not compile
					ps, ok := call.(udfrt.ParallelSafe)
					safe = ok && ps.ParallelSafe()
				}
			}
		}
		return x, safe
	})
	return safe
}

// evalAggregateSelect evaluates an aggregate query one group at a time. A
// group is a selection over the source: the WHERE selection for an
// ungrouped query, one per key otherwise. Items evaluate over a context
// on that selection, so aggregation kernels fold the base columns through
// it and other references gather only the columns they name.
func (f *frame) evalAggregateSelect(sel *sqlparse.Select, src *storage.Table, selv []int32, lazy *vec.Counted) (*storage.Table, error) {
	if src == nil {
		return nil, core.Errorf(core.KindSyntax, "aggregates require a FROM clause")
	}
	ungrouped := len(sel.GroupBy) == 0
	groups := [][]int32{selv}
	if !ungrouped {
		var err error
		if groups, err = f.groupRows(sel.GroupBy, src, selv); err != nil {
			return nil, err
		}
	}
	if sel.Having != nil {
		kept := groups[:0]
		for _, g := range groups {
			if err := f.interruptErr(); err != nil {
				return nil, err
			}
			ctx := newCtx(src, g)
			if ungrouped && ctx.rows() == 0 {
				kept = append(kept, g)
				continue
			}
			hv, err := f.evalGroupItem(ctx, sel.Having)
			if err != nil {
				return nil, err
			}
			switch {
			case hv.Len() == 1 && truthyAt(hv, 0):
				kept = append(kept, g)
			case ungrouped:
				// An ungrouped query yields its one row even when HAVING
				// refuses it, computed over no rows.
				kept = append(kept, []int32{})
			}
		}
		groups = kept
	}
	// With no group left, one pass over no rows still types the items and
	// reports their errors; its row is dropped.
	none := len(groups) == 0
	if none {
		groups = [][]int32{{}}
	}
	out := &storage.Table{Name: "result", Cols: make([]*storage.Column, len(sel.Items))}
	for gi, g := range groups {
		// One checkpoint per group: a group's items can each run a UDF over
		// the whole group, and there may be as many groups as rows.
		if err := f.interruptErr(); err != nil {
			return nil, err
		}
		ctx := &evalCtx{src: src, sel: g, lazy: lazy}
		if err := f.foldGroup(ctx, sel.Items); err != nil {
			return nil, err
		}
		for ii, item := range sel.Items {
			if item.Star {
				return nil, core.Errorf(core.KindSyntax, "SELECT * is not valid in an aggregate query")
			}
			val, err := f.evalGroupItem(ctx, item.Expr)
			if err != nil {
				return nil, err
			}
			if val.Len() != 1 {
				return nil, core.Errorf(core.KindConstraint,
					"aggregate query item must produce one value per group")
			}
			if gi == 0 {
				out.Cols[ii] = storage.NewColumn(itemName(item, ii), val.Typ)
			}
			if err := out.Cols[ii].AppendCell(val, 0); err != nil {
				return nil, err
			}
		}
	}
	if none {
		out.Truncate(0)
	}
	return out, nil
}

// evalGroupItem evaluates one projection item over a group's logical
// view (the context shared by every item of the group, so repeated
// references materialize once), producing a single value. Aggregates
// reduce the view; other expressions evaluate per-row and must be
// constant within the group (we take row 0).
func (f *frame) evalGroupItem(ctx *evalCtx, e sqlparse.Expr) (*storage.Column, error) {
	if call, ok := e.(*sqlparse.FuncCall); ok && sqlparse.IsAggregate(call.Name) {
		return f.aggregateOver(ctx, call)
	}
	switch e := e.(type) {
	case *sqlparse.BinaryExpr:
		if sqlparse.HasAggregate(e) {
			l, err := f.evalGroupItem(ctx, e.L)
			if err != nil {
				return nil, err
			}
			r, err := f.evalGroupItem(ctx, e.R)
			if err != nil {
				return nil, err
			}
			return f.evalBinary(e.Op, l, r)
		}
	case *sqlparse.UnaryExpr:
		if sqlparse.HasAggregate(e) {
			x, err := f.evalGroupItem(ctx, e.X)
			if err != nil {
				return nil, err
			}
			return f.evalUnary(e.Op, x)
		}
	}
	col, err := f.evalExpr(ctx, e)
	if err != nil {
		return nil, err
	}
	if col.Len() == 0 {
		out := storage.NewColumn("", col.Typ)
		out.AppendNull()
		return out, nil
	}
	return col.Gather([]int{0}), nil
}

// groupRows partitions the logical rows by the GROUP BY key, returning
// per-group physical row indexes into src in first-appearance order,
// hashing the typed key vectors.
func (f *frame) groupRows(exprs []sqlparse.Expr, src *storage.Table, selv []int32) ([][]int32, error) {
	ctx := newCtx(src, selv)
	n := ctx.rows()
	keyCols := make([]*storage.Column, len(exprs))
	for i, e := range exprs {
		col, err := f.evalExpr(ctx, e)
		if err != nil {
			return nil, err
		}
		if col.Len() == 1 && n > 1 {
			col = col.BroadcastTo(n)
		}
		keyCols[i] = col
	}
	if n == 0 {
		return nil, nil
	}
	groups := vec.Groups(f.pol(), keyCols, n)
	// map logical group members to physical source rows
	if selv != nil {
		for _, g := range groups {
			for j, li := range g {
				g[j] = selv[li]
			}
		}
	}
	return groups, nil
}

// orderResult sorts the result table in place per ORDER BY. Keys resolve
// against result columns first (aliases), then source columns.
func (f *frame) orderResult(sel *sqlparse.Select, result, src *storage.Table, selv []int32) error {
	n := result.NumRows()
	keys := make([]*storage.Column, len(sel.OrderBy))
	for ki, item := range sel.OrderBy {
		switch e := item.Expr.(type) {
		case *sqlparse.IntLit:
			pos := int(e.Value)
			if pos < 1 || pos > len(result.Cols) {
				return core.Errorf(core.KindConstraint, "ORDER BY position %d out of range", pos)
			}
			keys[ki] = result.Cols[pos-1]
			continue
		case *sqlparse.ColRef:
			if col, err := result.Column(e.Name); err == nil {
				keys[ki] = col
				continue
			}
		}
		srcRows := -1
		if src != nil {
			srcRows = src.NumRows()
			if selv != nil {
				srcRows = len(selv)
			}
		}
		if srcRows != n {
			return core.Errorf(core.KindConstraint,
				"ORDER BY expression must reference an output column")
		}
		ctx := newCtx(src, selv)
		col, err := f.evalExpr(ctx, item.Expr)
		if err != nil {
			return err
		}
		if col.Len() == 1 && n > 1 {
			col = col.BroadcastTo(n)
		}
		keys[ki] = col
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	sort.SliceStable(idx, func(a, b int) bool {
		if sortErr != nil {
			return false
		}
		for ki, key := range keys {
			ia, ib := idx[a], idx[b]
			an, bn := key.IsNull(ia), key.IsNull(ib)
			var cmp int
			switch {
			case an && bn:
				cmp = 0
			case an:
				cmp = -1 // NULLs first
			case bn:
				cmp = 1
			default:
				var err error
				cmp, err = compareAt(key, ia, key, ib)
				if err != nil {
					sortErr = err
					return false
				}
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
	if sortErr != nil {
		return sortErr
	}
	for i, col := range result.Cols {
		g := col.Gather(idx)
		g.Name = col.Name
		result.Cols[i] = g
	}
	return nil
}

// distinctRows drops duplicate result rows, keeping first occurrences,
// reusing the typed group hasher over the result columns.
func (f *frame) distinctRows(t *storage.Table) *storage.Table {
	idx := vec.DistinctReps(f.pol(), t.Cols, t.NumRows())
	if len(idx) == t.NumRows() {
		return t
	}
	out := &storage.Table{Name: t.Name}
	for _, col := range t.Cols {
		out.Cols = append(out.Cols, col.GatherSel(idx))
	}
	return out
}

func emptyLike(t *storage.Table) *storage.Table {
	return storage.NewTable(t.Name, t.Schema())
}

package engine

import (
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/engine/vec"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// evalCtx is the row context an expression evaluates against: a source
// table (nil for FROM-less selects) and an optional selection vector
// over its rows (the WHERE filter, consumed lazily — referenced columns
// are materialized once, on first use).
type evalCtx struct {
	src *storage.Table
	sel []int32 // non-nil: the logical rows are src's rows at sel
	// gathered memoizes per-column filtered views so an expression
	// referencing a column twice materializes it once.
	gathered map[*storage.Column]*storage.Column
}

// newCtx builds an evaluation context over a table view.
func newCtx(src *storage.Table, sel []int32) *evalCtx {
	return &evalCtx{src: src, sel: sel}
}

// pol is the morsel-execution policy for the statement's kernels. When
// its interrupt is armed, morsel workers poll it at every morsel boundary;
// otherwise Stop stays nil and the kernels pay one nil-check per morsel.
func (f *frame) pol() vec.Pol {
	p := vec.Pol{Workers: f.DB.Workers, MorselSize: f.DB.MorselSize}
	if f.Interrupt.armed() {
		p.Stop = &f.Interrupt
	}
	return p
}

// rows is the context's logical row count.
func (ctx *evalCtx) rows() int {
	if ctx.sel != nil {
		return len(ctx.sel)
	}
	return ctx.src.NumRows()
}

// view returns the column restricted to the context's selection,
// memoized per base column.
func (ctx *evalCtx) view(col *storage.Column) *storage.Column {
	if ctx.sel == nil {
		return col
	}
	if g, ok := ctx.gathered[col]; ok {
		return g
	}
	g := col.GatherSel(ctx.sel)
	if ctx.gathered == nil {
		ctx.gathered = map[*storage.Column]*storage.Column{}
	}
	ctx.gathered[col] = g
	return g
}

// column resolves a column reference against the context's logical view.
func (ctx *evalCtx) column(name string) (*storage.Column, error) {
	col, err := ctx.src.Column(name)
	if err != nil {
		return nil, err
	}
	return ctx.view(col), nil
}

// evalExpr evaluates an expression vectorized over the context, returning
// a column of the context's logical row count or of length 1 (a constant,
// broadcast by callers).
func (f *frame) evalExpr(ctx *evalCtx, e sqlparse.Expr) (*storage.Column, error) {
	switch e := e.(type) {
	case *sqlparse.IntLit, *sqlparse.FloatLit, *sqlparse.StrLit, *sqlparse.BoolLit, *sqlparse.NullLit:
		v, _ := sqlparse.LiteralValue(e) // never fails on a literal node
		return storage.BindValue(v)
	case *sqlparse.Placeholder:
		col, err := f.bindColumn(e)
		if err != nil {
			return nil, err
		}
		// clone so a bind referenced twice in one projection never shares a
		// column object (result assembly renames columns in place)
		return col.Clone(), nil
	case *sqlparse.ColRef:
		if ctx.src == nil {
			return nil, core.Errorf(core.KindName, "no FROM clause to resolve column %q", e.Name)
		}
		return ctx.column(e.Name)
	case *sqlparse.UnaryExpr:
		x, err := f.evalExpr(ctx, e.X)
		if err != nil {
			return nil, err
		}
		return f.evalUnary(e.Op, x)
	case *sqlparse.BinaryExpr:
		l, err := f.evalExpr(ctx, e.L)
		if err != nil {
			return nil, err
		}
		r, err := f.evalExpr(ctx, e.R)
		if err != nil {
			return nil, err
		}
		return f.evalBinary(e.Op, l, r)
	case *sqlparse.IsNullExpr:
		x, err := f.evalExpr(ctx, e.X)
		if err != nil {
			return nil, err
		}
		return vec.IsNull(f.pol(), x, e.Neg), nil
	case *sqlparse.CastExpr:
		x, err := f.evalExpr(ctx, e.X)
		if err != nil {
			return nil, err
		}
		return castColumn(x, e.To)
	case *sqlparse.FuncCall:
		return f.evalCall(ctx, e)
	case *sqlparse.Subquery:
		// scalar subquery: single column, single row
		t, err := f.evalSelect(e.Sel)
		if err != nil {
			return nil, err
		}
		if len(t.Cols) != 1 || t.NumRows() != 1 {
			return nil, core.Errorf(core.KindConstraint,
				"scalar subquery must return one row and one column (got %dx%d)",
				t.NumRows(), len(t.Cols))
		}
		return t.Cols[0], nil
	default:
		return nil, core.Errorf(core.KindSyntax, "unsupported expression %T", e)
	}
}

// bindColumn resolves a placeholder to its bound length-1 column in the
// frame's binds; reaching an unbound slot means the statement ran without
// them (a script).
func (f *frame) bindColumn(e *sqlparse.Placeholder) (*storage.Column, error) {
	if e.Index < 0 || e.Index >= len(f.binds) || f.binds[e.Index] == nil {
		return nil, core.Errorf(core.KindConstraint,
			"no value bound for parameter %d; use Prepare and pass arguments", e.Index+1)
	}
	return f.binds[e.Index], nil
}

// evalUnary dispatches a unary operator to the vectorized kernels.
func (f *frame) evalUnary(op string, x *storage.Column) (*storage.Column, error) {
	switch op {
	case "-":
		return vec.Neg(f.pol(), x)
	case "NOT":
		return vec.Not(f.pol(), x), nil
	default:
		return nil, core.Errorf(core.KindSyntax, "unsupported unary operator %q", op)
	}
}

// evalBinary dispatches a binary operator: op and operand types resolve
// to one typed kernel outside the loop.
func (f *frame) evalBinary(op string, l, r *storage.Column) (*storage.Column, error) {
	n, err := vec.Align(l, r)
	if err != nil {
		return nil, err
	}
	p := f.pol()
	switch op {
	case "+":
		return vec.Arith(p, vec.OpAdd, l, r, n)
	case "-":
		return vec.Arith(p, vec.OpSub, l, r, n)
	case "*":
		return vec.Arith(p, vec.OpMul, l, r, n)
	case "/":
		return vec.Arith(p, vec.OpDiv, l, r, n)
	case "%":
		return vec.Arith(p, vec.OpMod, l, r, n)
	case "=", "<>", "<", "<=", ">", ">=":
		return vec.Compare(p, cmpOpOf(op), l, r, n)
	case "AND":
		return vec.Logic(p, true, l, r, n), nil
	case "OR":
		return vec.Logic(p, false, l, r, n), nil
	case "||":
		return concatColumns(l, r, n), nil
	default:
		return nil, core.Errorf(core.KindSyntax, "unsupported operator %q", op)
	}
}

// concatColumns is the || operator, row at a time (string building has no
// typed kernel): the formatted cells joined, NULL when either side is.
func concatColumns(l, r *storage.Column, n int) *storage.Column {
	at := func(c *storage.Column, i int) int {
		if c.Len() == 1 {
			return 0
		}
		return i
	}
	out := storage.NewColumn("", storage.TStr)
	out.Reserve(n)
	for i := 0; i < n; i++ {
		li, ri := at(l, i), at(r, i)
		if l.IsNull(li) || r.IsNull(ri) {
			out.AppendNull()
			continue
		}
		out.AppendStr(l.FormatValue(li) + r.FormatValue(ri))
	}
	return out
}

func cmpOpOf(op string) vec.CmpOp {
	switch op {
	case "=":
		return vec.CmpEq
	case "<>":
		return vec.CmpNe
	case "<":
		return vec.CmpLt
	case "<=":
		return vec.CmpLe
	case ">":
		return vec.CmpGt
	default:
		return vec.CmpGe
	}
}

// evalCall dispatches a function expression: scalar builtin, aggregate
// (over the whole context, for non-grouped use), or a runtime UDF.
func (f *frame) evalCall(ctx *evalCtx, call *sqlparse.FuncCall) (*storage.Column, error) {
	name := strings.ToLower(call.Name)
	if sqlparse.IsAggregate(name) {
		return f.aggregateOver(ctx, call)
	}
	if fn, ok := scalarBuiltins[name]; ok {
		args, err := f.evalArgs(ctx, call.Args)
		if err != nil {
			return nil, err
		}
		return fn(args)
	}
	if name == extractFuncName {
		return nil, core.Errorf(core.KindConstraint,
			"%s is table-valued; use it in FROM", extractFuncName)
	}
	if f.DB.cat.HasFunction(call.Name) {
		argCols, isColumn, err := f.udfArgColumns(ctx, call.Args)
		if err != nil {
			return nil, err
		}
		out, err := f.callScalarUDF(call.Name, argCols, isColumn)
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	return nil, core.Errorf(core.KindName, "no such function: %s", call.Name)
}

func (f *frame) evalArgs(ctx *evalCtx, args []sqlparse.Expr) ([]*storage.Column, error) {
	out := make([]*storage.Column, len(args))
	for i, a := range args {
		col, err := f.evalExpr(ctx, a)
		if err != nil {
			return nil, err
		}
		out[i] = col
	}
	return out, nil
}

// udfArgColumns evaluates UDF arguments, expanding table-valued subqueries
// into one column per output column (the paper's
// train_rnforest((SELECT data, labels FROM trainingset), n) shape). The
// parallel isColumn slice records MonetDB/Python's calling convention per
// argument: column references and subquery outputs arrive in the UDF as
// arrays (lists), constant expressions as scalars — regardless of how many
// rows the column happens to hold.
func (f *frame) udfArgColumns(ctx *evalCtx, args []sqlparse.Expr) ([]*storage.Column, []bool, error) {
	var out []*storage.Column
	var isColumn []bool
	for _, a := range args {
		if sub, ok := a.(*sqlparse.Subquery); ok {
			t, err := f.evalSelect(sub.Sel)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, t.Cols...)
			for range t.Cols {
				isColumn = append(isColumn, true)
			}
			continue
		}
		col, err := f.evalExpr(ctx, a)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, col)
		isColumn = append(isColumn, exprIsColumnar(a))
	}
	return out, isColumn, nil
}

// exprIsColumnar reports whether an argument expression derives from table
// data (and therefore arrives in the UDF as a list). Aggregates reduce
// columns to scalars, so they do not count as columnar.
func exprIsColumnar(e sqlparse.Expr) bool {
	found := false
	sqlparse.EditExpr(e, func(x sqlparse.Expr) (sqlparse.Expr, bool) {
		switch x := x.(type) {
		case *sqlparse.ColRef, *sqlparse.Subquery:
			found = true
		case *sqlparse.FuncCall:
			if sqlparse.IsAggregate(x.Name) {
				return x, false
			}
		}
		return x, !found
	})
	return found
}

// ---- shared row accessors (ORDER BY, constant predicates, builtins) ----

func numericAt(c *storage.Column, i int) (float64, bool) {
	switch c.Typ {
	case storage.TInt:
		return float64(c.Ints[i]), true
	case storage.TFloat:
		return c.Flts[i], true
	case storage.TBool:
		if c.Bools[i] {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

func truthyAt(c *storage.Column, i int) bool {
	if c.IsNull(i) {
		return false
	}
	switch c.Typ {
	case storage.TBool:
		return c.Bools[i]
	case storage.TInt:
		return c.Ints[i] != 0
	case storage.TFloat:
		return c.Flts[i] != 0
	case storage.TStr:
		return c.Strs[i] != ""
	default:
		return false
	}
}

// compareAt orders two cells: exact for int pairs, via float64 for other
// numeric pairs, lexicographic for strings.
func compareAt(l *storage.Column, li int, r *storage.Column, ri int) (int, error) {
	if l.Typ == storage.TInt && r.Typ == storage.TInt {
		a, b := l.Ints[li], r.Ints[ri]
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	a, aok := numericAt(l, li)
	b, bok := numericAt(r, ri)
	if aok && bok {
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if l.Typ == storage.TStr && r.Typ == storage.TStr {
		return strings.Compare(l.Strs[li], r.Strs[ri]), nil
	}
	return 0, core.Errorf(core.KindType, "cannot compare %s with %s", l.Typ, r.Typ)
}

func castColumn(x *storage.Column, to storage.Type) (*storage.Column, error) {
	out := storage.NewColumn("", to)
	out.Reserve(x.Len())
	for i := 0; i < x.Len(); i++ {
		if err := out.AppendCell(x, i); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ---- scalar builtins ----

type scalarFn func(args []*storage.Column) (*storage.Column, error)

var scalarBuiltins = map[string]scalarFn{
	"abs":    fnAbs,
	"length": fnLength,
	"upper":  fnStrMap(strings.ToUpper),
	"lower":  fnStrMap(strings.ToLower),
	"sqrt":   fnFloatMap("sqrt", math.Sqrt),
	"floor":  fnFloatMap("floor", math.Floor),
	"ceil":   fnFloatMap("ceil", math.Ceil),
	"round":  fnRound,
}

func isBuiltinName(name string) bool {
	n := strings.ToLower(name)
	if _, ok := scalarBuiltins[n]; ok {
		return true
	}
	return sqlparse.IsAggregate(n) || n == extractFuncName
}

func arity(name string, args []*storage.Column, want int) error {
	if len(args) != want {
		return core.Errorf(core.KindType, "%s expects %d argument(s), got %d", name, want, len(args))
	}
	return nil
}

// allNullOrErr resolves a builtin applied to a column of the wrong type:
// an error if any row is non-NULL (the historical per-row check would
// have reached it), else an all-NULL column of the given type.
func allNullOrErr(x *storage.Column, outTyp storage.Type, err error) (*storage.Column, error) {
	for i := 0; i < x.Len(); i++ {
		if !x.IsNull(i) {
			return nil, err
		}
	}
	return vec.AllNull(outTyp, x.Len()), nil
}

func fnAbs(args []*storage.Column) (*storage.Column, error) {
	if err := arity("ABS", args, 1); err != nil {
		return nil, err
	}
	x := args[0]
	n := x.Len()
	switch x.Typ {
	case storage.TInt:
		out := storage.NewColumn("", storage.TInt)
		out.Reserve(n)
		for i := 0; i < n; i++ {
			if x.IsNull(i) {
				out.AppendNull()
				continue
			}
			v := x.Ints[i]
			if v < 0 {
				v = -v
			}
			out.AppendInt(v)
		}
		return out, nil
	case storage.TFloat:
		out := storage.NewColumn("", storage.TFloat)
		out.Reserve(n)
		for i := 0; i < n; i++ {
			if x.IsNull(i) {
				out.AppendNull()
				continue
			}
			out.AppendFloat(math.Abs(x.Flts[i]))
		}
		return out, nil
	default:
		return allNullOrErr(x, x.Typ,
			core.Errorf(core.KindType, "ABS needs a numeric argument"))
	}
}

func fnLength(args []*storage.Column) (*storage.Column, error) {
	if err := arity("LENGTH", args, 1); err != nil {
		return nil, err
	}
	x := args[0]
	out := storage.NewColumn("", storage.TInt)
	switch x.Typ {
	case storage.TStr:
		out.Reserve(x.Len())
		for i := 0; i < x.Len(); i++ {
			if x.IsNull(i) {
				out.AppendNull()
				continue
			}
			out.AppendInt(int64(len(x.Strs[i])))
		}
		return out, nil
	case storage.TBlob:
		out.Reserve(x.Len())
		for i := 0; i < x.Len(); i++ {
			if x.IsNull(i) {
				out.AppendNull()
				continue
			}
			out.AppendInt(int64(len(x.Blobs[i])))
		}
		return out, nil
	default:
		return allNullOrErr(x, storage.TInt,
			core.Errorf(core.KindType, "LENGTH needs a string or blob argument"))
	}
}

func fnStrMap(fn func(string) string) scalarFn {
	return func(args []*storage.Column) (*storage.Column, error) {
		if err := arity("string function", args, 1); err != nil {
			return nil, err
		}
		x := args[0]
		if x.Typ != storage.TStr {
			return nil, core.Errorf(core.KindType, "expected a string argument")
		}
		out := storage.NewColumn("", storage.TStr)
		out.Reserve(x.Len())
		for i := 0; i < x.Len(); i++ {
			if x.IsNull(i) {
				out.AppendNull()
				continue
			}
			out.AppendStr(fn(x.Strs[i]))
		}
		return out, nil
	}
}

func fnFloatMap(name string, fn func(float64) float64) scalarFn {
	return func(args []*storage.Column) (*storage.Column, error) {
		if err := arity(name, args, 1); err != nil {
			return nil, err
		}
		x := args[0]
		n := x.Len()
		out := storage.NewColumn("", storage.TFloat)
		switch x.Typ {
		case storage.TFloat:
			out.Reserve(n)
			for i := 0; i < n; i++ {
				if x.IsNull(i) {
					out.AppendNull()
					continue
				}
				out.AppendFloat(fn(x.Flts[i]))
			}
		case storage.TInt:
			out.Reserve(n)
			for i := 0; i < n; i++ {
				if x.IsNull(i) {
					out.AppendNull()
					continue
				}
				out.AppendFloat(fn(float64(x.Ints[i])))
			}
		case storage.TBool:
			out.Reserve(n)
			for i := 0; i < n; i++ {
				if x.IsNull(i) {
					out.AppendNull()
					continue
				}
				v := 0.0
				if x.Bools[i] {
					v = 1
				}
				out.AppendFloat(fn(v))
			}
		default:
			return allNullOrErr(x, storage.TFloat,
				core.Errorf(core.KindType, "%s needs a numeric argument", name))
		}
		return out, nil
	}
}

func fnRound(args []*storage.Column) (*storage.Column, error) {
	if len(args) < 1 || len(args) > 2 {
		return nil, core.Errorf(core.KindType, "ROUND expects 1 or 2 arguments")
	}
	digits := int64(0)
	if len(args) == 2 {
		if args[1].Typ != storage.TInt || args[1].Len() != 1 {
			return nil, core.Errorf(core.KindType, "ROUND digits must be an integer constant")
		}
		digits = args[1].Ints[0]
	}
	scale := math.Pow(10, float64(digits))
	round := fnFloatMap("ROUND", func(v float64) float64 {
		return math.Round(v*scale) / scale
	})
	out, err := round(args[:1])
	if err != nil {
		return nil, err
	}
	return out, nil
}

package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine/vec"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// TestConstantAggregateArgumentCountsEveryRow: an aggregate whose argument
// references no column (a literal, a bind) stands for that value on every
// row of the group, so COUNT(1) counts the rows and SUM(2) doubles them. A
// NULL constant still counts nothing and sums to NULL. The answers are
// checked by hand on a 5-row table.
func TestConstantAggregateArgumentCountsEveryRow(t *testing.T) {
	c := newTestConn()
	mustExec(t, c, `CREATE TABLE t (i INTEGER, s STRING)`)
	mustExec(t, c, `INSERT INTO t VALUES (1, 'a'), (2, 'a'), (3, 'b'), (4, 'b'), (5, 'b')`)

	r := mustExec(t, c, `SELECT COUNT(1) AS n, SUM(2) AS s2, AVG(3) AS a3, MIN(4) AS mn FROM t`)
	if n, s2 := intCol(t, r.Table, "n")[0], intCol(t, r.Table, "s2")[0]; n != 5 || s2 != 10 {
		t.Errorf("COUNT(1), SUM(2) = %d, %d; want 5, 10", n, s2)
	}
	if a3, mn := r.Table.Cols[2].Flts[0], r.Table.Cols[3].Ints[0]; a3 != 3 || mn != 4 {
		t.Errorf("AVG(3), MIN(4) = %v, %d; want 3, 4", a3, mn)
	}

	r = mustExec(t, c, `SELECT s, COUNT(1) AS n, SUM(2) AS s2 FROM t GROUP BY s`)
	if got := fmt.Sprint(intCol(t, r.Table, "n"), intCol(t, r.Table, "s2")); got != "[2 3] [4 6]" {
		t.Errorf("grouped COUNT(1), SUM(2) = %s; want [2 3] [4 6]", got)
	}

	stmt, err := c.Prepare(`SELECT SUM(?) AS s FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	r, err = stmt.Query(int64(10))
	if err != nil {
		t.Fatal(err)
	}
	if got := intCol(t, r.Table, "s")[0]; got != 50 {
		t.Errorf("SUM(?) with 10 bound = %d; want 50", got)
	}

	r = mustExec(t, c, `SELECT COUNT(NULL) AS n, SUM(NULL) AS s FROM t`)
	if n := intCol(t, r.Table, "n")[0]; n != 0 || !r.Table.Cols[1].IsNull(0) {
		t.Errorf("COUNT(NULL), SUM(NULL) = %d, %v; want 0, NULL", n, r.Table.Cols[1].Value(0))
	}

	// over no rows a constant counts nothing and sums to NULL
	r = mustExec(t, c, `SELECT COUNT(1) AS n, SUM(2) AS s FROM t WHERE i > 100`)
	if n := intCol(t, r.Table, "n")[0]; n != 0 || !r.Table.Cols[1].IsNull(0) {
		t.Errorf("COUNT(1), SUM(2) over no rows = %d, %v; want 0, NULL", n, r.Table.Cols[1].Value(0))
	}
}

// foldConn is a connection whose aggregates fold in morsels of 64 rows on
// four workers, over t(i) holding 0..rows-1.
func foldConn(t *testing.T, rows int) *Conn {
	t.Helper()
	c := newTestConn()
	c.DB.workers, c.DB.morselSize = 4, 64
	col := storage.NewColumn("i", storage.TInt)
	for i := 0; i < rows; i++ {
		col.AppendInt(int64(i))
	}
	if err := c.DB.RegisterTable(&storage.Table{Name: "t", Cols: []*storage.Column{col}}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFoldResolvesCallablesBeforeFanningOut: a GO UDF that has never been
// called is resolved on the statement's goroutine, not by the workers that
// fold its morsels, and what they call is its FuncDef.Compiled, which
// DB.apply wrote once before installing the entry. Run under -race.
func TestFoldResolvesCallablesBeforeFanningOut(t *testing.T) {
	const rows = 64 * 10
	c := foldConn(t, rows)
	if err := c.DB.RegisterGoUDFElementwise("fresh", func(x []int64) []int64 {
		out := make([]int64, len(x))
		for i, v := range x {
			out[i] = 3 * v
		}
		return out
	}); err != nil {
		t.Fatal(err)
	}
	want := int64(3 * (rows - 1) * rows / 2)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := &Conn{DB: c.DB, User: "monetdb", Password: "monetdb"}
			r, err := conn.Exec(`SELECT SUM(fresh(i + 0)) AS s FROM t`)
			if err != nil {
				t.Error(err)
				return
			}
			if got := r.Table.Cols[0].Ints[0]; got != want {
				t.Errorf("SUM(fresh(i + 0)) = %d, want %d", got, want)
			}
		}()
	}
	wg.Wait()
}

// TestFoldKeepsWholeBatchUDFAnswers: folding in morsels changes no UDF's
// answer. A batch-dependent UDF — aggregate-style (one value from a whole
// column, bare or inside an expression with a column) or a prefix sum —
// is registered with RegisterGoUDF, so the fold leaves it to the whole
// view, where the UDF is called once; an aggregate beside it in the group
// still folds.
func TestFoldKeepsWholeBatchUDFAnswers(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := foldConn(t, 1000)
			c.DB.workers = workers
			testWholeBatchUDFAnswers(t, c)
		})
	}
}

func testWholeBatchUDFAnswers(t *testing.T, c *Conn) {
	t.Helper()
	if err := c.DB.RegisterGoUDF("vtotal", func(x []int64) int64 {
		var s int64
		for _, v := range x {
			s += v
		}
		return s
	}); err != nil {
		t.Fatal(err)
	}
	const total = 999 * 1000 / 2
	r := mustExec(t, c, `SELECT SUM(vtotal(i)) AS s, COUNT(vtotal(i)) AS n, AVG(vtotal(i)) AS a FROM t`)
	if s, n, a := r.Table.Cols[0].Ints[0], r.Table.Cols[1].Ints[0], r.Table.Cols[2].Flts[0]; s != total || n != 1 || a != total {
		t.Errorf("SUM, COUNT, AVG(vtotal(i)) = %d, %d, %v; want %d, 1, %d", s, n, a, total, total)
	}
	const above = total - 499*500/2 // i >= 500
	r = mustExec(t, c, `SELECT SUM(vtotal(i)) AS s, COUNT(vtotal(i)) AS n FROM t WHERE i >= 500`)
	if s, n := r.Table.Cols[0].Ints[0], r.Table.Cols[1].Ints[0]; s != above || n != 1 {
		t.Errorf("filtered SUM, COUNT(vtotal(i)) = %d, %d; want %d, 1", s, n, above)
	}
	// Nested under an operator with a column, the UDF's one value is
	// broadcast over the whole view's rows, not over each morsel's; an
	// aggregate beside them in the group still folds.
	for _, tc := range []struct {
		where                 string
		double, sum, max, min int64
	}{
		{"", 2 * total, total + 1000*total, 999 - total, 2 * total},
		{" WHERE i >= 500", 2 * above, above + 500*above, 999 - above, 2 * above},
	} {
		r = mustExec(t, c, `SELECT SUM(i * 2) AS d, SUM(i + vtotal(i)) AS s, MAX(i - vtotal(i)) AS m, MIN(vtotal(i) * 2) AS n FROM t`+tc.where)
		got := [4]int64{r.Table.Cols[0].Ints[0], r.Table.Cols[1].Ints[0], r.Table.Cols[2].Ints[0], r.Table.Cols[3].Ints[0]}
		if want := [4]int64{tc.double, tc.sum, tc.max, tc.min}; got != want {
			t.Errorf("SUM(i * 2), SUM(i + vtotal(i)), MAX(i - vtotal(i)), MIN(vtotal(i) * 2)%s = %v; want %v", tc.where, got, want)
		}
	}

	if err := c.DB.RegisterGoUDF("prefix_sum", func(x []int64) []int64 {
		out := make([]int64, len(x))
		var run int64
		for i := range x {
			run++
			out[i] = run
		}
		return out
	}); err != nil {
		t.Fatal(err)
	}
	// 1 + 2 + ... + 1000 over the whole batch; restarting every 64 rows
	// would give far less
	r = mustExec(t, c, `SELECT SUM(prefix_sum(i)) AS s, MAX(prefix_sum(i)) AS m FROM t`)
	if s, m := r.Table.Cols[0].Ints[0], r.Table.Cols[1].Ints[0]; s != 1000*1001/2 || m != 1000 {
		t.Errorf("SUM, MAX(prefix_sum(i)) = %d, %d; want %d, 1000 (restarted mid-batch?)", s, m, 1000*1001/2)
	}
}

// TestFoldGroupPicksMorselSafeAggregates: a group folds, in morsels, the
// aggregates over an expression of columns, literals and element-wise GO
// UDFs, and leaves a bare column, COUNT(*), a plain GO UDF and a subquery
// to aggregateOver's whole view, with one worker as with four; under two
// morsels of rows it folds none.
func TestFoldGroupPicksMorselSafeAggregates(t *testing.T) {
	c := foldConn(t, 1000)
	if err := c.DB.RegisterGoUDFElementwise("twice", func(x []int64) []int64 { return x }); err != nil {
		t.Fatal(err)
	}
	if err := c.DB.RegisterGoUDF("plain", func(x []int64) []int64 { return x }); err != nil {
		t.Fatal(err)
	}
	st, err := sqlparse.Parse(`SELECT SUM(i * 2), MAX(twice(i) + 1), COUNT(3), SUM(i), COUNT(*), SUM(plain(i)),
		MIN(i + (SELECT COUNT(*) FROM t)), AVG(i) * 2 + SUM(twice(i)) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	items := st.(*sqlparse.Select).Items
	want := []string{"SUM((i * 2))", "MAX((twice(i) + 1))", "COUNT(3)", "SUM(twice(i))"}
	for _, tc := range []struct {
		workers, rows int
		want          []string
	}{{4, 1000, want}, {1, 1000, want}, {4, 127, nil}} {
		c.DB.workers = tc.workers
		f := &frame{Conn: c}
		ctx := newCtx(must(c.DB.cat.Table("t")), nil)
		ctx.sel = make([]int32, tc.rows)
		if err := f.foldGroup(ctx, items); err != nil {
			t.Fatal(err)
		}
		var got []string
		for call := range ctx.folded {
			got = append(got, sqlparse.FormatExpr(call))
		}
		slices.Sort(got)
		if w := slices.Sorted(slices.Values(tc.want)); !slices.Equal(got, w) {
			t.Errorf("workers=%d rows=%d: folded %q, want %q", tc.workers, tc.rows, got, w)
		}
	}
}

// TestFoldLeavesSubqueryAggregatesAlone: an aggregate inside a subquery of
// a folded group's item is its own query's, over its own table, and is not
// folded over the group's rows.
func TestFoldLeavesSubqueryAggregatesAlone(t *testing.T) {
	c := foldConn(t, 1000)
	mustExec(t, c, `CREATE TABLE u (k INTEGER)`)
	mustExec(t, c, `INSERT INTO u VALUES (4), (9), (2)`)
	r := mustExec(t, c, `SELECT SUM(i * 2) AS a, (SELECT MAX(k * 2) FROM u) AS m FROM t`)
	if a, m := r.Table.Cols[0].Ints[0], r.Table.Cols[1].Ints[0]; a != 999*1000 || m != 18 {
		t.Errorf("SUM(i * 2), (SELECT MAX(k * 2) FROM u) = %d, %d; want %d, 18", a, m, 999*1000)
	}
}

// TestFoldReportsTheEarliestMorselsError: when several morsels fail, the
// statement reports the error of the earliest one, whichever worker
// failed first — the error the whole-batch call reports.
func TestFoldReportsTheEarliestMorselsError(t *testing.T) {
	c := foldConn(t, 64*8)
	if err := c.DB.RegisterGoUDFElementwise("picky", func(x []int64) ([]int64, error) {
		for _, v := range x {
			if v%100 == 99 {
				if v == 99 {
					time.Sleep(2 * time.Millisecond) // the earliest failure fails last
				}
				return nil, fmt.Errorf("bad row %d", v)
			}
		}
		return x, nil
	}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20; k++ {
		for q, want := range map[string]string{
			`SELECT SUM(picky(i)) AS s FROM t`:               "bad row 99",
			`SELECT MIN(picky(i)) AS s FROM t WHERE i > 150`: "bad row 199",
		} {
			if _, err := c.Exec(q); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: got %v, want %q", q, err, want)
			}
		}
	}
}

// TestFoldIsBitIdentical: folding an aggregate's argument morsel by morsel
// answers exactly, bit for bit, what evaluating it over the whole view and
// running the same kernel once answers (wholeView), for every aggregate,
// over ints, floats with NULLs, -0.0, +0.0 and NaN, strings, an
// element-wise GO UDF and a bind, with and without WHERE, grouped (one
// group spans several morsels) and under HAVING. One worker never splits.
func TestFoldIsBitIdentical(t *testing.T) {
	queries := []struct {
		sql   string
		binds []any
	}{
		{`SELECT SUM(i * 2) AS a, AVG(f * 3.0) AS b, COUNT(i + j) AS c, MIN(f - 1.5) AS d, MAX(i - j) AS e FROM t`, nil},
		{`SELECT SUM(f * 1.25) AS a, AVG(i + 1) AS b, MIN(z * 1.0) AS c, MAX(z * 1.0) AS d, MIN(-z) AS e, MAX(-z) AS g FROM t WHERE i > -15`, nil},
		{`SELECT SUM(dsq(i)) AS a, AVG(dsq(j)) AS b, MAX(dsq(i) + j) AS c, MIN(s || 'x') AS d, MAX(s || 'x') AS e FROM t WHERE f > -100.0`, nil},
		{`SELECT SUM(i * ?) AS a, AVG(f + ?) AS b, COUNT(?) AS c, SUM(?) AS d FROM t WHERE j < ?`, []any{int64(3), 0.1, int64(7), 2.5, int64(12)}},
		{`SELECT b, SUM(f * 0.3) AS a, AVG(dsq(i)) AS c, MIN(z * 1.0) AS d, MAX(z * 1.0) AS e, COUNT(1) AS n FROM t GROUP BY b`, nil},
		{`SELECT b, SUM(f + 0.7) AS a, MAX(i * j) AS m FROM t WHERE i <> 3 GROUP BY b HAVING AVG(f * 1.1) > -1000.0`, nil},
		{`SELECT b, SUM(f * 0.1) AS a FROM t GROUP BY b HAVING SUM(dsq(i)) > 1000`, nil},
		{`SELECT s, COUNT(i * 1) AS n, AVG(f * 2.0) AS a FROM t GROUP BY s HAVING MAX(z * 1.0) >= 0.0`, nil},
	}
	for _, workers := range []int{1, 2, 4} {
		for _, morsel := range []int{16, 64} {
			c := diffConn(t, 0, 0)
			c.DB.workers, c.DB.morselSize = workers, morsel
			seedFoldTable(t, c, 1200)
			for _, q := range queries {
				stmt, err := c.Prepare(q.sql)
				if err != nil {
					t.Fatal(err)
				}
				got, err := stmt.Query(q.binds...)
				if err != nil {
					t.Fatalf("%s: %v", q.sql, err)
				}
				want := wholeViewSelect(t, c, q.sql, q.binds)
				if want.NumRows() == 0 {
					t.Fatalf("%s: no rows to compare", q.sql)
				}
				if err := bitIdentical(got.Table, want); err != nil {
					t.Errorf("workers=%d morsel=%d %s: %v", workers, morsel, q.sql, err)
				}
			}
		}
	}
}

// seedFoldTable replaces t with rows of ints, floats with NULLs, a float
// column z of -0.0, +0.0, NaN and NULL among plain values, strings and a
// two-valued key b whose groups each span many morsels.
func seedFoldTable(t *testing.T, c *Conn, rows int) {
	t.Helper()
	rng := rand.New(rand.NewSource(45))
	cols := map[string]*storage.Column{
		"i": randColumn(rng, storage.TInt, rows, 0.1),
		"j": randColumn(rng, storage.TInt, rows, 0.1),
		"f": storage.NewColumn("f", storage.TFloat),
		"z": storage.NewColumn("z", storage.TFloat),
		"s": randColumn(rng, storage.TStr, rows, 0.1),
		"b": randColumn(rng, storage.TBool, rows, 0),
	}
	specials := []float64{math.Copysign(0, -1), 0, math.NaN(), 2.5, -7.25}
	for r := 0; r < rows; r++ {
		if rng.Intn(8) == 0 {
			cols["f"].AppendNull()
		} else {
			cols["f"].AppendFloat(rng.NormFloat64() * 1e3) // not exactly summable
		}
		if k := rng.Intn(len(specials) + 1); k == len(specials) {
			cols["z"].AppendNull()
		} else {
			cols["z"].AppendFloat(specials[k])
		}
	}
	tbl := &storage.Table{Name: "t"}
	for _, name := range []string{"i", "j", "f", "z", "s", "b"} {
		cols[name].Name = name
		tbl.Cols = append(tbl.Cols, cols[name])
	}
	mustExec(t, c, `DROP TABLE t`)
	if err := c.DB.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
}

// wholeViewSelect answers an aggregate query of the shapes
// TestFoldIsBitIdentical uses, evaluating every aggregate with wholeView.
func wholeViewSelect(t *testing.T, c *Conn, sql string, binds []any) *storage.Table {
	t.Helper()
	st, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*sqlparse.Select)
	f := &frame{Conn: c}
	for _, v := range binds {
		f.binds = append(f.binds, must(storage.BindValue(v)))
	}
	src := must(c.DB.cat.Table("t"))
	var selv []int32
	if sel.Where != nil {
		_, selv = must2(f.filter(src, sel.Where))
	}
	groups := [][]int32{selv}
	if len(sel.GroupBy) > 0 {
		groups = must(f.groupRows(sel.GroupBy, src, selv))
	}
	out := &storage.Table{Name: "result"}
	for _, g := range groups {
		ctx := newCtx(src, g)
		if sel.Having != nil && !truthyAt(wholeViewItem(t, f, ctx, sel.Having), 0) {
			continue
		}
		for i, item := range sel.Items {
			val := wholeViewItem(t, f, ctx, item.Expr)
			if len(out.Cols) == len(sel.Items) {
				check(out.Cols[i].AppendCell(val, 0))
				continue
			}
			col := storage.NewColumn(itemName(item, i), val.Typ)
			check(col.AppendCell(val, 0))
			out.Cols = append(out.Cols, col)
		}
	}
	return out
}

func must2[A, B any](a A, b B, err error) (A, B) {
	check(err)
	return a, b
}

// wholeViewItem is one value of a group: an aggregate by wholeView, an
// operator over aggregates by its kernel, a group key by its first row.
func wholeViewItem(t *testing.T, f *frame, ctx *evalCtx, e sqlparse.Expr) *storage.Column {
	t.Helper()
	switch e := e.(type) {
	case *sqlparse.FuncCall:
		if sqlparse.IsAggregate(e.Name) {
			return wholeView(t, f, ctx, e)
		}
	case *sqlparse.BinaryExpr:
		if sqlparse.HasAggregate(e) {
			l, r := wholeViewItem(t, f, ctx, e.L), wholeViewItem(t, f, ctx, e.R)
			return must(f.evalBinary(e.Op, l, r))
		}
	}
	return must(f.evalExpr(ctx, e)).GatherSel([]int32{0})
}

// wholeView evaluates an aggregate the way the engine did before it folded
// morsels: its argument over the whole view (a constant broadcast over the
// view's rows), then one call of the aggregation kernel.
func wholeView(t *testing.T, f *frame, ctx *evalCtx, call *sqlparse.FuncCall) *storage.Column {
	t.Helper()
	if call.Star {
		out := storage.NewColumn("", storage.TInt)
		out.AppendInt(int64(ctx.rows()))
		return out
	}
	arg := call.Args[0]
	col := must(f.evalExpr(ctx, arg))
	if n := ctx.rows(); col.Len() == 1 && n != 1 && !exprIsColumnar(arg) {
		col = col.BroadcastTo(n)
	}
	p := f.pol()
	switch name := strings.ToLower(call.Name); name {
	case "count":
		out := storage.NewColumn("", storage.TInt)
		out.AppendInt(vec.CountNotNull(p, col, nil))
		return out
	case "sum", "avg":
		isum, fsum, cnt, ok := vec.SumCount(p, col, nil)
		if !ok || cnt == 0 {
			t.Fatalf("%s over %s: no numeric rows", name, sqlparse.FormatExpr(arg))
		}
		out := storage.NewColumn("", storage.TFloat)
		switch {
		case name == "avg":
			out.AppendFloat(fsum / float64(cnt))
		case col.Typ == storage.TInt:
			out = storage.NewColumn("", storage.TInt)
			out.AppendInt(isum)
		default:
			out.AppendFloat(fsum)
		}
		return out
	default:
		best := must(vec.MinMaxIdx(p, col, nil, name == "min"))
		if best < 0 {
			t.Fatalf("%s over %s: every row NULL", name, sqlparse.FormatExpr(arg))
		}
		return col.GatherSel([]int32{int32(best)})
	}
}

// bitIdentical is table equality that tells -0.0 from +0.0 and compares
// NaNs by their bits.
func bitIdentical(got, want *storage.Table) error {
	if len(got.Cols) != len(want.Cols) || got.NumRows() != want.NumRows() {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.NumRows(), len(got.Cols), want.NumRows(), len(want.Cols))
	}
	for ci, g := range got.Cols {
		w := want.Cols[ci]
		if g.Typ != w.Typ {
			return fmt.Errorf("col %s: type %s, want %s", w.Name, g.Typ, w.Typ)
		}
		for r := 0; r < g.Len(); r++ {
			if g.IsNull(r) != w.IsNull(r) {
				return fmt.Errorf("col %s row %d: NULL %v, want %v", w.Name, r, g.IsNull(r), w.IsNull(r))
			}
			if g.Typ == storage.TFloat {
				if gb, wb := math.Float64bits(g.Flts[r]), math.Float64bits(w.Flts[r]); gb != wb {
					return fmt.Errorf("col %s row %d: %v (%#x), want %v (%#x)", w.Name, r, g.Flts[r], gb, w.Flts[r], wb)
				}
			} else if gv, wv := g.Value(r), w.Value(r); gv != wv {
				return fmt.Errorf("col %s row %d: %v, want %v", w.Name, r, gv, wv)
			}
		}
	}
	return nil
}

// TestFilteredAggregateBuildsNoSelection: an ungrouped aggregate filtered
// by one, two or three column-vs-literal conjuncts counts the qualifying
// rows and fills each morsel of them into a worker's own buffer, so a
// statement allocates less than one table-sized int32 selection would take.
func TestFilteredAggregateBuildsNoSelection(t *testing.T) {
	const rows = 200_000
	const lo, hi = rows / 4, 3 * rows / 4
	sum := func(from, to int64) int64 { return (to-1)*to/2 - (from-1)*from/2 } // of [from, to)
	cases := []struct {
		where   string
		binds   []any
		n, s, m int64
	}{
		{"i < ?", []any{int64(rows / 2)}, rows / 2, sum(0, rows/2), 0},
		{"i >= ? AND i < ?", []any{int64(lo), int64(hi)}, hi - lo, sum(lo, hi), lo},
		{"i >= ? AND i < ? AND i <> ?", []any{int64(lo), int64(hi), int64(lo)}, hi - lo - 1, sum(lo+1, hi), lo + 1},
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := foldConn(t, rows)
			c.DB.workers, c.DB.morselSize = workers, 0
			for _, tc := range cases {
				stmt, err := c.Prepare(`SELECT COUNT(*) AS n, SUM(i) AS s, MIN(i) AS m FROM t WHERE ` + tc.where)
				if err != nil {
					t.Fatal(err)
				}
				const runs = 8
				var before, after runtime.MemStats
				for k := 0; k <= runs; k++ {
					if k == 1 {
						runtime.ReadMemStats(&before)
					}
					r, err := stmt.Query(tc.binds...)
					if err != nil {
						t.Fatal(err)
					}
					if n, s, m := r.Table.Cols[0].Ints[0], r.Table.Cols[1].Ints[0], r.Table.Cols[2].Ints[0]; n != tc.n || s != tc.s || m != tc.m {
						t.Fatalf("%s: COUNT(*), SUM(i), MIN(i) = %d, %d, %d; want %d, %d, %d", tc.where, n, s, m, tc.n, tc.s, tc.m)
					}
				}
				runtime.ReadMemStats(&after)
				per := (after.TotalAlloc - before.TotalAlloc) / runs
				t.Logf("%s: %d bytes per statement", tc.where, per)
				if per >= 4*rows {
					t.Errorf("%s: %d bytes allocated per statement, want fewer than %d (one int32 per row)", tc.where, per, 4*rows)
				}
			}
		})
	}
}

// TestLazyFilterFoldIsBitIdentical: an aggregate over a WHERE of fused
// conjuncts, whose qualifying rows are counted and filled morsel by morsel
// instead of built, answers bit for bit what wholeViewSelect answers over
// the built selection. Its rows are scattered at about 5, 50 and 95
// percent, so morsels of the qualifying rows start inside blocks of the
// table; floats hold NULLs, -0.0 and +0.0, and x NaN too (y has none, so
// its sums show where the partials split). Conjunctions range over one int
// column, compare both floats, a string, and run three deep. With no row
// qualifying — an empty range, a NULL literal or a NULL bind, in the first
// conjunct or the second — it answers, typed alike, what the same query
// answers with a conjunct k = k added, which is not fused, so the
// statement builds its selection.
func TestLazyFilterFoldIsBitIdentical(t *testing.T) {
	const items = `COUNT(*) AS n, SUM(y) AS a, AVG(y) AS b, MIN(x) AS c, MAX(x) AS d,
		SUM(y * 1.5) AS e, AVG(x - 0.25) AS g, MIN(y + 1.0) AS h, MAX(k) AS m, COUNT(x) AS cx`
	const rows = 1500
	rng := rand.New(rand.NewSource(47))
	k, r := storage.NewColumn("k", storage.TInt), storage.NewColumn("r", storage.TInt)
	x, y := storage.NewColumn("x", storage.TFloat), storage.NewColumn("y", storage.TFloat)
	s := storage.NewColumn("s", storage.TStr)
	specials := []float64{math.Copysign(0, -1), 0, math.NaN()}
	for i := 0; i < rows; i++ {
		k.AppendInt(int64(i))
		r.AppendInt(rng.Int63n(100))
		for _, col := range []*storage.Column{x, y} {
			switch v := rng.Intn(12); {
			case v == 0:
				col.AppendNull()
			case v < 4 && (col == x || v < 3):
				col.AppendFloat(specials[v-1])
			default:
				col.AppendFloat(rng.NormFloat64() * 1e3) // not exactly summable
			}
		}
		s.AppendStr(string(rune('a' + i*7%26)))
	}
	for _, workers := range []int{1, 2, 4} {
		for _, morsel := range []int{16, 64} {
			c := newTestConn()
			c.DB.workers, c.DB.morselSize = workers, morsel
			tbl := &storage.Table{Name: "t", Cols: []*storage.Column{k.Clone(), r.Clone(), x.Clone(), y.Clone(), s.Clone()}}
			if err := c.DB.RegisterTable(tbl); err != nil {
				t.Fatal(err)
			}
			for _, where := range []string{"r < 5", "r >= 50", "r < 95", "r >= 0", "x > 0.0", "k <> 700",
				"k >= 300 AND k < 1100", "k > 1100 AND 1490 >= k", "x > -500.0 AND y <= 0.0", "x >= 0.0 AND y <> 0.0",
				"s >= 'm' AND r < 50", "r >= 10 AND x < 500.0 AND k <> 700"} {
				sql := `SELECT ` + items + ` FROM t WHERE ` + where
				got := mustExec(t, c, sql)
				if err := bitIdentical(got.Table, wholeViewSelect(t, c, sql, nil)); err != nil {
					t.Errorf("workers=%d morsel=%d %s: %v", workers, morsel, where, err)
				}
			}
			for _, tc := range []struct {
				where string
				binds []any
			}{{"r > 100", nil}, {"r < NULL", nil}, {"r < ?", []any{nil}},
				{"k >= 700 AND k < 700", nil}, {"r < 50 AND x > ?", []any{nil}}, {"x <> NULL AND r < 50", nil}} {
				stmt := must(c.Prepare(`SELECT ` + items + ` FROM t WHERE ` + tc.where))
				got := must(stmt.Query(tc.binds...))
				built := must(c.Prepare(`SELECT ` + items + ` FROM t WHERE ` + tc.where + ` AND k = k`))
				want := must(built.Query(tc.binds...))
				if err := bitIdentical(got.Table, want.Table); err != nil {
					t.Errorf("workers=%d morsel=%d %s: %v", workers, morsel, tc.where, err)
				}
				if n, a, m := got.Table.Cols[0].Ints[0], got.Table.Cols[1], got.Table.Cols[3]; n != 0 || !a.IsNull(0) || !m.IsNull(0) || m.Typ != storage.TFloat {
					t.Errorf("workers=%d morsel=%d %s: COUNT(*), SUM(y), MIN(x) = %d, %v, %v (%s); want 0, NULL, NULL (DOUBLE)",
						workers, morsel, tc.where, n, a.Value(0), m.Value(0), m.Typ)
				}
			}
		}
	}
}

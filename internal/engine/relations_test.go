package engine

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/storage"
)

// relationItems are the aggregates FuzzAggregateRelations relates, in
// column order; %s is the constant argument: a non-NULL literal k ad hoc,
// a bind of k prepared. rinc is an element-wise GO UDF, so SUM(rinc(j))
// folds in morsels.
const relationItems = `COUNT(*) AS n, COUNT(1) AS n1, COUNT(i) AS ni, COUNT(s) AS ns,
	SUM(i) AS si, SUM(rinc(j)) AS sr, SUM(%s) AS sk,
	MIN(i) AS mni, MAX(j) AS mxj, MIN(s) AS mns, MAX(s) AS mxs`

// relationCombine merges one item's answers over a predicate's three
// partitions into the unfiltered answer: COUNTs and SUMs add, ignoring a
// NULL SUM, and MIN/MAX keep the extremum of the non-NULL answers.
var relationCombine = []func(a, b any) any{
	addAny, addAny, addAny, addAny,
	addAny, addAny, addAny,
	extremum(true), extremum(false), extremum(true), extremum(false),
}

func addAny(a, b any) any {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return a.(int64) + b.(int64)
}

func extremum(min bool) func(a, b any) any {
	return func(a, b any) any {
		if a == nil {
			return b
		}
		if b == nil {
			return a
		}
		var before bool // b sorts before a
		switch a := a.(type) {
		case int64:
			before = b.(int64) < a
		case string:
			before = b.(string) < a
		}
		if before == min {
			return b
		}
		return a
	}
}

// relPredicate builds a predicate over t(i, j, s) nested at most depth
// deep: comparisons with literals, NULL and another column, IS [NOT] NULL
// and the element-wise GO UDF rinc, under AND, OR and NOT.
func relPredicate(rng *rand.Rand, depth int) string {
	if depth > 0 && rng.Intn(3) > 0 {
		switch rng.Intn(3) {
		case 0:
			return "(" + relPredicate(rng, depth-1) + " AND " + relPredicate(rng, depth-1) + ")"
		case 1:
			return "(" + relPredicate(rng, depth-1) + " OR " + relPredicate(rng, depth-1) + ")"
		default:
			return "NOT (" + relPredicate(rng, depth-1) + ")"
		}
	}
	op := []string{"=", "<>", "<", "<=", ">", ">="}[rng.Intn(6)]
	col := []string{"i", "j"}[rng.Intn(2)]
	lit := strconv.Itoa(rng.Intn(41) - 20)
	if rng.Intn(8) == 0 {
		lit = "NULL"
	}
	switch rng.Intn(6) {
	case 0:
		return col + " " + op + " " + lit
	case 1:
		return "i " + op + " j"
	case 2:
		return fmt.Sprintf("s %s '%c'", op, 'a'+rng.Intn(5))
	case 3:
		return []string{"i", "j", "s"}[rng.Intn(3)] + []string{" IS NULL", " IS NOT NULL"}[rng.Intn(2)]
	case 4:
		return "rinc(" + col + ") " + op + " " + lit
	default:
		return "rinc(i) " + op + " rinc(j)"
	}
}

// FuzzAggregateRelations checks metamorphic relations, which need no
// second implementation, on a seeded table t(i, j INTEGER, s STRING) with
// NULLs and a generated predicate p:
//   - COUNT(1) = COUNT(*) and SUM(k) = k·COUNT(*) for a non-NULL literal k;
//   - ternary partitioning (Rigger and Su, OOPSLA 2020): each aggregate over
//     WHERE p, WHERE NOT (p) and WHERE (p) IS NULL combines to its answer
//     over the whole table, as every row makes p true, false or NULL
//     (AND/OR are NULL-is-false, NOT keeps NULL);
//   - every query answers the same bits ad hoc and prepared, at workers
//     {1, 4} × morsel {16, 64}, so that the fold and the morsel UDF path
//     are reached.
func FuzzAggregateRelations(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint16(seed*37), uint8(seed%4), int8(seed-4))
	}
	f.Add(int64(45), uint16(5), uint8(1), int8(1))
	f.Add(int64(46), uint16(0), uint8(2), int8(3))
	// 250 rows and one comparison with a literal (i <= 7, j <> 1, i = -4,
	// j > NULL): the WHERE p query counts and fills its rows, and morsels
	// of 16 and 64 of them start inside the table's blocks
	f.Add(int64(140), uint16(250), uint8(0), int8(5))
	f.Add(int64(109), uint16(250), uint8(4), int8(-3))
	f.Add(int64(169), uint16(550), uint8(0), int8(0))
	f.Add(int64(202), uint16(250), uint8(8), int8(2))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, depth uint8, k int8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(rows) % 300
		cols := []*storage.Column{
			randColumn(rng, storage.TInt, n, 0.2),
			randColumn(rng, storage.TInt, n, 0.2),
			randColumn(rng, storage.TStr, n, 0.2),
		}
		for ci, name := range []string{"i", "j", "s"} {
			cols[ci].Name = name
		}
		p := relPredicate(rng, int(depth)%4)
		var conns []*Conn
		for _, workers := range []int{1, 4} {
			for _, morsel := range []int{16, 64} {
				c := newTestConn()
				c.DB.workers, c.DB.morselSize = workers, morsel
				tbl := &storage.Table{Name: "t"}
				for _, col := range cols {
					tbl.Cols = append(tbl.Cols, col.Clone())
				}
				if err := c.DB.RegisterTable(tbl); err != nil {
					t.Fatal(err)
				}
				if err := c.DB.RegisterGoUDFElementwise("rinc", func(x []int64) []int64 {
					out := make([]int64, len(x))
					for r, v := range x {
						out[r] = v + 1
					}
					return out
				}); err != nil {
					t.Fatal(err)
				}
				conns = append(conns, c)
			}
		}

		// answers[w] is the one row of the query over whole, p, NOT p, p IS NULL
		wheres := []string{"", " WHERE " + p, " WHERE NOT (" + p + ")", " WHERE (" + p + ") IS NULL"}
		answers := make([][]any, len(wheres))
		for w, where := range wheres {
			adhoc := "SELECT " + fmt.Sprintf(relationItems, strconv.Itoa(int(k))) + " FROM t" + where
			prepared := "SELECT " + fmt.Sprintf(relationItems, "?") + " FROM t" + where
			var first *storage.Table
			for _, c := range conns {
				r, err := c.Exec(adhoc)
				if err != nil {
					t.Fatalf("%s: %v", adhoc, err)
				}
				stmt, err := c.Prepare(prepared)
				if err != nil {
					t.Fatalf("%s: %v", prepared, err)
				}
				pr, err := stmt.Query(int64(k))
				if err != nil {
					t.Fatalf("%s with %d bound: %v", prepared, k, err)
				}
				if first == nil {
					first = r.Table
				}
				for how, got := range map[string]*storage.Table{"ad hoc": r.Table, "prepared": pr.Table} {
					if err := tablesSemanticallyEqual(got, first); err != nil {
						t.Fatalf("%s, %s at workers=%d morsel=%d: %v", adhoc, how, c.DB.workers, c.DB.morselSize, err)
					}
				}
			}
			row := make([]any, len(first.Cols))
			for ci, col := range first.Cols {
				row[ci] = col.Value(0)
			}
			answers[w] = row
			count := row[0].(int64)
			if row[1] != count {
				t.Errorf("%s: COUNT(1) = %v, COUNT(*) = %d", adhoc, row[1], count)
			}
			if want := any(int64(k) * count); count == 0 && row[6] != nil || count > 0 && row[6] != want {
				t.Errorf("%s: SUM(%d) = %v over %d rows", adhoc, k, row[6], count)
			}
		}
		for item, combine := range relationCombine {
			got := combine(combine(answers[1][item], answers[2][item]), answers[3][item])
			if want := answers[0][item]; got != want {
				t.Errorf("item %d of %s: over p, NOT p and p IS NULL %v, %v, %v combine to %v; over every row %v (p = %s)",
					item, relationItems, answers[1][item], answers[2][item], answers[3][item], got, want, p)
			}
		}
	})
}

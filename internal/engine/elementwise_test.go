package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

func sumInts(x []int64) int64 {
	var s int64
	for _, v := range x {
		s += v
	}
	return s
}

// elementwiseQueries are the places a UDF f over t(i) runs: a projection,
// an aggregate over it and an aggregate over an expression with a column,
// each over the whole table and over i >= 500.
func elementwiseQueries(f string) []string {
	var qs []string
	for _, where := range []string{"", " WHERE i >= 500"} {
		qs = append(qs,
			fmt.Sprintf("SELECT %s(i) AS v FROM t%s", f, where),
			fmt.Sprintf("SELECT SUM(%s(i)) AS v FROM t%s", f, where),
			fmt.Sprintf("SELECT SUM(i + %s(i)) AS v FROM t%s", f, where))
	}
	return qs
}

// TestElementwiseRegistrationIsTheContract: registering a UDF element-wise
// is a contract the engine holds it to, whatever the worker count and
// morsel size. A function that takes a column and returns one value
// (vtotal) is refused at registration with a type error, which leaves an
// earlier whole-batch registration of the name answering as before. A
// function that answers one value for a column of many (ones) is one
// constraint error with one text at every setting, in a projection and in
// a folded aggregate alike, never a per-morsel answer. Morsel size 1 is
// left out for ones: over one-row morsels its answer has the right length,
// so no check can see the mis-declaration.
func TestElementwiseRegistrationIsTheContract(t *testing.T) {
	const total = 999 * 1000 / 2
	const above = total - 499*500/2 // i >= 500
	// vtotal's whole-batch answers to elementwiseQueries
	wantVtotal := []int64{total, total, total + 1000*total, above, above, above + 500*above}
	for _, workers := range []int{1, 4} {
		for _, morsel := range []int{1, 64} {
			t.Run(fmt.Sprintf("vtotal/workers=%d/morsel=%d", workers, morsel), func(t *testing.T) {
				c := foldConn(t, 1000)
				c.DB.workers, c.DB.morselSize = workers, morsel
				if err := c.DB.RegisterGoUDF("vtotal", sumInts); err != nil {
					t.Fatal(err)
				}
				err := c.DB.RegisterGoUDFElementwise("vtotal", sumInts)
				if core.KindOf(err) != core.KindType || !strings.Contains(err.Error(), "vtotal") || !strings.Contains(err.Error(), "RegisterGoUDF") {
					t.Fatalf("element-wise vtotal: %v; want a type error naming vtotal and RegisterGoUDF", err)
				}
				for i, q := range elementwiseQueries("vtotal") {
					r := mustExec(t, c, q)
					if got := r.Table.Cols[0].Ints; !slices.Equal(got, wantVtotal[i:i+1]) {
						t.Errorf("%s = %v; want the whole-batch answer [%d]", q, got, wantVtotal[i])
					}
				}
			})
		}
	}

	ones := func(x []int64) []int64 { return []int64{sumInts(x)} }
	var want string
	for _, workers := range []int{1, 4} {
		for _, morsel := range []int{16, 64} {
			t.Run(fmt.Sprintf("ones/workers=%d/morsel=%d", workers, morsel), func(t *testing.T) {
				c := foldConn(t, 1000)
				c.DB.workers, c.DB.morselSize = workers, morsel
				if err := c.DB.RegisterGoUDFElementwise("ones", ones); err != nil {
					t.Fatal(err)
				}
				for _, q := range elementwiseQueries("ones") {
					r, err := c.Exec(q)
					switch {
					case err == nil:
						t.Errorf("%s answered %v; want the element-wise contract's error", q, r.Table.Cols[0].Value(0))
					case core.KindOf(err) != core.KindConstraint:
						t.Errorf("%s: %v; want a constraint error", q, err)
					case want == "":
						want = err.Error()
					case err.Error() != want:
						t.Errorf("%s: %q; want the same text at every setting: %q", q, err, want)
					}
				}
			})
		}
	}
	if !strings.Contains(want, "ones") || !strings.Contains(want, "RegisterGoUDF") {
		t.Errorf("the error %q does not name ones and RegisterGoUDF", want)
	}
}

// TestUDFCardinalityErrorNamesTheUDF: a UDF over 1000 rows that answers
// 999 is refused by name, registered element-wise at one worker or four,
// or whole-batch, where the refusal also gives the two row counts.
func TestUDFCardinalityErrorNamesTheUDF(t *testing.T) {
	short := func(x []int64) []int64 { return slices.Clone(x[:len(x)-1]) }
	for _, workers := range []int{1, 4} {
		c := foldConn(t, 1000)
		c.DB.workers = workers
		if err := c.DB.RegisterGoUDFElementwise("short", short); err != nil {
			t.Fatal(err)
		}
		if err := execErr(t, c, `SELECT short(i) AS v FROM t`); !strings.Contains(err.Error(), "UDF short returned") {
			t.Errorf("element-wise, workers=%d: %v; want it to name short", workers, err)
		}
	}
	c := foldConn(t, 1000)
	if err := c.DB.RegisterGoUDF("short", short); err != nil {
		t.Fatal(err)
	}
	err := execErr(t, c, `SELECT short(i) AS v FROM t`)
	if want := "constraint error: UDF short returned 999 rows for 1000 input rows"; err.Error() != want {
		t.Errorf("whole-batch: %q; want %q", err, want)
	}
}

// TestElementwiseUDFAnswersTheLowestFailingMorsel: an element-wise GO UDF
// that fails in morsels 1 and 3, naming the morsel, answers morsel 1's
// error at every worker count and morsel size, in a projection and in a
// folded aggregate alike, as the whole-batch call does.
func TestElementwiseUDFAnswersTheLowestFailingMorsel(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, morsel := range []int{16, 64} {
			t.Run(fmt.Sprintf("workers=%d/morsel=%d", workers, morsel), func(t *testing.T) {
				c := foldConn(t, 1000)
				c.DB.workers, c.DB.morselSize = workers, morsel
				failing := func(x []int64) ([]int64, error) {
					for _, v := range x {
						if m := v / int64(morsel); m == 1 || m == 3 {
							return nil, fmt.Errorf("morsel %d failed", m)
						}
					}
					return slices.Clone(x), nil
				}
				if err := c.DB.RegisterGoUDFElementwise("failing", failing); err != nil {
					t.Fatal(err)
				}
				for _, q := range []string{"SELECT failing(i) AS v FROM t", "SELECT SUM(failing(i)) AS v FROM t"} {
					if err := execErr(t, c, q); !strings.Contains(err.Error(), "morsel 1 failed") {
						t.Errorf("%s: %v; want morsel 1's error", q, err)
					}
				}
			})
		}
	}
}

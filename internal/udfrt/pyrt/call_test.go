package pyrt_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/udfrt"
	"repro/internal/udfrt/pyrt"
)

// TestCallAllocatesNothingPerRow: the allocations of one Call of the two
// benchmark UDFs — column in, interpreter, column out — do not grow with
// the rows, beyond the growths of square_vec's result vector.
func TestCallAllocatesNothingPerRow(t *testing.T) {
	for _, sql := range []string{bench.MeanDeviationBuggy, bench.SquareVectorUDF} {
		st, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		cf := st.(*sqlparse.CreateFunction)
		call, err := pyrt.New().Compile(&storage.FuncDef{Name: cf.Name, Params: cf.Params, Returns: cf.Returns, Language: pyrt.Name, Body: cf.Body})
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(rows int) float64 {
			col := storage.NewColumn("i", storage.TInt)
			for i := 0; i < rows; i++ {
				col.AppendInt(int64(1000 + i%9973))
			}
			env := &udfrt.Env{} // the prepared interpreter is memoized here, as in a statement
			in := udfrt.NewBatch([]*storage.Column{col}, []bool{true})
			return testing.AllocsPerRun(3, func() {
				if out, err := call.Call(env, in); err != nil || out.Rows == 0 {
					t.Fatal(out, err)
				}
			})
		}
		small, large := allocs(10_000), allocs(100_000)
		if large-small > 16 { // append grows a large []int64 by a quarter: 10x the rows is ten more growths
			t.Errorf("%s: %v allocations over 10k rows, %v over 100k", cf.Name, small, large)
		}
		t.Logf("%s: %v allocations over 10k rows, %v over 100k", cf.Name, small, large)
	}
}

package engine

// The vectorized core's flagship benchmarks. They live beside the
// refSelect oracle because their scalar-reference legs run it: the
// row-at-a-time baseline the CI speedup gate divides by.
//
//	go test -run '^$' -bench 'BenchmarkFilter' ./internal/engine

import (
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
)

// buildFilterAggregateDB bulk-loads a 1M-row table (int key, float
// measure) straight into the catalog.
func buildFilterAggregateDB(b *testing.B, rows int) *Conn {
	b.Helper()
	iCol := &storage.Column{Name: "i", Typ: storage.TInt, Ints: make([]int64, rows)}
	fCol := &storage.Column{Name: "f", Typ: storage.TFloat, Flts: make([]float64, rows)}
	// deterministic LCG so every leg filters the same ~50% of rows
	state := uint64(42)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 11
	}
	for r := 0; r < rows; r++ {
		iCol.Ints[r] = int64(next() % 1000)
		fCol.Flts[r] = float64(next()%1_000_000) / 1_000_000
	}
	c := &Conn{DB: NewDB(), User: "monetdb", Password: "monetdb"}
	if err := c.DB.RegisterTable(&storage.Table{Name: "big", Cols: []*storage.Column{iCol, fCol}}); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkFilterAggregate is the vectorized core's headline number: a
// filtered aggregate over 1M rows through three execution strategies —
// the scalar reference (the refSelect oracle: row-at-a-time kernels,
// immediate gather), the vectorized single-threaded path (typed
// aggregation kernels over the qualifying rows), and the morsel-parallel
// path across all cores. The CI gate is ≥5x for vectorized over
// scalar-reference. Every engine leg filters on one conjunct, so none
// builds its selection: a count pass, then a fill of each morsel of the
// qualifying rows into a worker's buffer. The go-udf legs sum
// an element-wise GO UDF over them, which the aggregate folds morsel by
// morsel at one worker as at several: no table-sized selection or gather,
// no stitched UDF result.
func BenchmarkFilterAggregate(b *testing.B) {
	const rows = 1_000_000
	const query = `SELECT COUNT(*) AS n, SUM(i) AS si, AVG(f) AS af FROM big WHERE f > 0.5`
	const udfQuery = `SELECT SUM(sq(i)) AS s FROM big WHERE i < 500`
	// several expression aggregates over one filtered column: each folds
	// the column's selection on its own
	const multiQuery = `SELECT SUM(f * 2) AS a, AVG(f * 3) AS b, MIN(f - 1) AS c, MAX(f + 1) AS d FROM big WHERE f > 0.5`
	table := func(r *Result, err error) (*storage.Table, error) {
		if err != nil {
			return nil, err
		}
		return r.Table, nil
	}
	vectorized := func(c *Conn) (*storage.Table, error) { return table(c.Exec(query)) }
	goUDFSum := func(c *Conn) (*storage.Table, error) { return table(c.Exec(udfQuery)) }
	multiAgg := func(c *Conn) (*storage.Table, error) { return table(c.Exec(multiQuery)) }
	for _, tc := range []struct {
		name    string
		workers int
		obsOn   bool
		exec    func(c *Conn) (*storage.Table, error)
	}{
		{"scalar-reference", 1, false, func(c *Conn) (*storage.Table, error) { return refExec(c, query) }},
		{"vectorized", 1, false, vectorized},
		{"vectorized-parallel", 0, false, vectorized}, // 0 = GOMAXPROCS
		// The vectorized leg with the full observability envelope on —
		// metrics registry plus a pooled per-query trace, the serving-path
		// configuration. Tracing costs a fixed ~0.4µs per statement, so on
		// a millisecond-scale scan it vanishes; the CI overhead gate holds
		// this within 10% of the plain vectorized leg from the same run
		// (pure runner-noise headroom — the measured delta is ~0.01%).
		{"vectorized-obs", 1, true, func(c *Conn) (*storage.Table, error) {
			tr := obs.AcquireTrace(query, "monetdb")
			defer obs.ReleaseTrace(tr)
			return table(c.ExecWith(ExecOpts{Trace: tr}, query))
		}},
		{"go-udf-sum", 1, false, goUDFSum},
		{"go-udf-sum-parallel", 0, false, goUDFSum},
		{"multi-expr-agg", 1, false, multiAgg},
		{"multi-expr-agg-parallel", 0, false, multiAgg},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c := buildFilterAggregateDB(b, rows)
			c.DB.workers = tc.workers
			if tc.obsOn {
				c.DB.EnableObs(obs.NewRegistry())
			}
			if err := c.DB.RegisterGoUDFElementwise("sq", func(x []int64) []int64 {
				out := make([]int64, len(x))
				for i, v := range x {
					out[i] = v * v
				}
				return out
			}); err != nil {
				b.Fatal(err)
			}
			// sanity: all legs must agree on the aggregate
			t, err := tc.exec(c)
			if err != nil {
				b.Fatal(err)
			}
			if strings.HasPrefix(tc.name, "go-udf") {
				want, err := c.Exec(`SELECT SUM(i * i) AS s FROM big WHERE i < 500`)
				if err != nil || want.Table.Cols[0].Ints[0] != t.Cols[0].Ints[0] {
					b.Fatalf("SUM(sq(i)) = %v, SUM(i * i) = %v (%v)", t.Cols[0].Ints, want, err)
				}
			} else if strings.HasPrefix(tc.name, "multi") {
				want, err := refExec(c, multiQuery)
				if err != nil {
					b.Fatal(err)
				}
				for k, col := range t.Cols {
					if got, w := col.Flts[0], want.Cols[k].Flts[0]; math.Abs(got-w) > 1e-9*math.Abs(w) {
						b.Fatalf("%s = %v, scalar reference %v", col.Name, got, w)
					}
				}
			} else if n := t.Cols[0].Ints[0]; n < rows/3 || n > 2*rows/3 {
				b.Fatalf("selectivity off: %d of %d rows", n, rows)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tc.exec(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFilterProject measures the projection side of selection
// vectors: WHERE + column materialization + LIMIT, where the reference
// pays an append-grown index, a full gather into an intermediate table, a
// projection copy, and an identity-index LIMIT copy.
func BenchmarkFilterProject(b *testing.B) {
	const rows = 1_000_000
	const query = `SELECT i, f FROM big WHERE i < 100 LIMIT 1000`
	b.Run("scalar-reference", func(b *testing.B) {
		c := buildFilterAggregateDB(b, rows)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := refExec(c, query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vectorized", func(b *testing.B) {
		c := buildFilterAggregateDB(b, rows)
		c.DB.workers = 1
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Exec(query); err != nil {
				b.Fatal(err)
			}
		}
	})
}

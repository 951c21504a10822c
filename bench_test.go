// Benchmark harness: one testing.B benchmark per experiment in the
// DESIGN.md §5 index (T1, E1–E7), plus microbenchmarks of the substrates.
// cmd/experiments prints the same rows as a human-readable report;
// EXPERIMENTS.md records paper-vs-measured for each artefact.
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/devudf"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/script"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/transfer"
	"repro/internal/transform"
	"repro/internal/wal"
	"repro/monetlite"
)

// ctx is the background context the benches pass to the v2 session API.
var ctx = context.Background()

// ---- T1: Table 1 ----

// BenchmarkTable1 regenerates the paper's only table (static data; the
// bench exists so every artefact has a `-bench` entry point).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		for _, r := range bench.Table1 {
			fmt.Fprintf(&sb, "%-22s %5.1f%% %s\n", r.Name, r.Share, r.Kind)
		}
		ide, editor := bench.IDEShare()
		if ide < editor {
			b.Fatal("Table 1 must show IDEs dominating")
		}
	}
}

// ---- fixtures ----

func startNumbers(b *testing.B, rows int) (*bench.Fixture, func()) {
	b.Helper()
	fx, err := bench.StartServer(
		`CREATE TABLE numbers (i INTEGER)`,
		bench.NumbersInsert("numbers", rows),
		bench.MeanDeviationBuggy,
	)
	if err != nil {
		b.Fatal(err)
	}
	return fx, func() { fx.Close() }
}

func fixtureClient(b *testing.B, fx *bench.Fixture, opts devudf.TransferOptions) *devudf.Client {
	b.Helper()
	settings := devudf.DefaultSettings()
	settings.Connection = fx.Params
	settings.DebugQuery = `SELECT mean_deviation(i) FROM numbers`
	settings.Transfer = opts
	c, err := devudf.Open(ctx, settings, devudf.WithFS(core.NewMemFS(nil)))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.ImportUDFs(ctx, "mean_deviation"); err != nil {
		b.Fatal(err)
	}
	return c
}

// ---- E1: compression ----

func BenchmarkExtractCompression(b *testing.B) {
	for _, rows := range []int{10_000, 100_000} {
		for _, compress := range []bool{false, true} {
			name := fmt.Sprintf("rows=%d/compress=%v", rows, compress)
			b.Run(name, func(b *testing.B) {
				fx, done := startNumbers(b, rows)
				defer done()
				c := fixtureClient(b, fx, devudf.TransferOptions{Compress: compress})
				defer c.Close()
				b.ResetTimer()
				var payload int
				for i := 0; i < b.N; i++ {
					info, err := c.ExtractInputs(ctx, "mean_deviation")
					if err != nil {
						b.Fatal(err)
					}
					payload = info.PayloadBytes
				}
				b.ReportMetric(float64(payload), "payloadB")
			})
		}
	}
}

// ---- E2: sampling ----

func BenchmarkExtractSampling(b *testing.B) {
	const rows = 100_000
	for _, sample := range []int{0, rows / 2, rows / 10, rows / 100} {
		name := "sample=all"
		if sample > 0 {
			name = fmt.Sprintf("sample=%d", sample)
		}
		b.Run(name, func(b *testing.B) {
			fx, done := startNumbers(b, rows)
			defer done()
			c := fixtureClient(b, fx, devudf.TransferOptions{SampleSize: sample, Seed: 42})
			defer c.Close()
			b.ResetTimer()
			var payload int
			for i := 0; i < b.N; i++ {
				info, err := c.ExtractInputs(ctx, "mean_deviation")
				if err != nil {
					b.Fatal(err)
				}
				payload = info.PayloadBytes
			}
			b.ReportMetric(float64(payload), "payloadB")
		})
	}
}

// ---- E3: encryption ----

func BenchmarkExtractEncryption(b *testing.B) {
	const rows = 100_000
	for _, encrypt := range []bool{false, true} {
		b.Run(fmt.Sprintf("encrypt=%v", encrypt), func(b *testing.B) {
			fx, done := startNumbers(b, rows)
			defer done()
			c := fixtureClient(b, fx, devudf.TransferOptions{Encrypt: encrypt, Seed: 1})
			defer c.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.ExtractInputs(ctx, "mean_deviation"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E4: debug-cycle cost ----

// BenchmarkDebugCycleTraditional measures one traditional probe:
// CREATE OR REPLACE on the server + full remote query.
func BenchmarkDebugCycleTraditional(b *testing.B) {
	fx, done := startNumbers(b, 50_000)
	defer done()
	c := fixtureClient(b, fx, devudf.TransferOptions{})
	defer c.Close()
	info, _, err := c.Project.LoadUDF("mean_deviation")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.TraditionalCycle(ctx, info, bench.MeanDeviationFixedBody); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDebugCycleDevUDF measures one devUDF probe after the one-time
// extract: edit the body + run locally on the full extracted input.
func BenchmarkDebugCycleDevUDF(b *testing.B) {
	fx, done := startNumbers(b, 50_000)
	defer done()
	c := fixtureClient(b, fx, devudf.TransferOptions{})
	defer c.Close()
	if _, err := c.ExtractInputs(ctx, "mean_deviation"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.EditBody("mean_deviation", bench.MeanDeviationFixedBody); err != nil {
			b.Fatal(err)
		}
		if _, err := c.RunLocal(ctx, "mean_deviation"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDebugCycleDevUDFSampled is the same probe on a 1% uniform
// sample — the §2.1 option — which is where the devUDF loop wins big.
func BenchmarkDebugCycleDevUDFSampled(b *testing.B) {
	fx, done := startNumbers(b, 50_000)
	defer done()
	c := fixtureClient(b, fx, devudf.TransferOptions{SampleSize: 500, Seed: 42})
	defer c.Close()
	if _, err := c.ExtractInputs(ctx, "mean_deviation"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.EditBody("mean_deviation", bench.MeanDeviationFixedBody); err != nil {
			b.Fatal(err)
		}
		if _, err := c.RunLocal(ctx, "mean_deviation"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E5: processing models ----

// BenchmarkProcessingModel compares the three UDF execution shapes on the
// same 100k-row scalar computation: §2.4's tuple-at-a-time loop (one
// interpreter call per row), MonetDB's batch model through the PYTHON
// runtime (one interpreter call, whole column boxed into list values), and
// the native GO runtime (one call, the column's vector handed to typed Go
// code with zero boxing). The GO runtime is expected to beat batch-Python
// by a wide margin — that gap is the point of the pluggable runtime seam.
func BenchmarkProcessingModel(b *testing.B) {
	const rows = 100_000
	for _, tc := range []struct {
		name string
		mode monetlite.Mode
		sql  string
	}{
		{"tuple-at-a-time", monetlite.ModeTupleAtATime, `SELECT square(i) FROM numbers`},
		{"batch-python", monetlite.ModeOperatorAtATime, `SELECT square_vec(i) FROM numbers`},
		{"native-go", monetlite.ModeOperatorAtATime, `SELECT square_go(i) FROM numbers`},
	} {
		b.Run(tc.name, func(b *testing.B) {
			fx, err := bench.StartServer(
				`CREATE TABLE numbers (i INTEGER)`,
				bench.NumbersInsert("numbers", rows),
				bench.SquareUDF, bench.SquareVectorUDF,
			)
			if err != nil {
				b.Fatal(err)
			}
			defer fx.Close()
			if err := fx.DB.RegisterGoUDFElementwise("square_go", bench.SquareGo); err != nil {
				b.Fatal(err)
			}
			fx.DB.Mode = tc.mode
			conn := monetlite.Connect(fx.DB, "monetdb", "monetdb")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := conn.Exec(tc.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The vectorized core's BenchmarkFilterAggregate / BenchmarkFilterProject
// live in internal/engine (vectorized_bench_test.go): their
// scalar-reference legs run the test-side refSelect oracle, which only
// that package can reach.

// ---- prepared statements: parse/plan amortization ----

// BenchmarkPrepareExec measures the point of the Prepare/Bind/Exec API: a
// parameterized filter+UDF query executed thousands of times with distinct
// binds. The unprepared leg does what ad-hoc clients do — format the
// literals into the SQL text and Exec it, re-lexing/re-parsing every call
// (distinct text defeats the plan cache by construction, the
// million-distinct-binds workload). The prepared leg parses once and binds
// per execution. The CI gate requires prepared ≥2x unprepared in the same
// run. The plan-cache leg shows the third shape: identical unprepared text
// served out of the DB plan cache.
func BenchmarkPrepareExec(b *testing.B) {
	const rows = 32
	build := func(b *testing.B) *monetlite.Conn {
		b.Helper()
		iCol := &storage.Column{Name: "i", Typ: storage.TInt, Ints: make([]int64, rows)}
		fCol := &storage.Column{Name: "f", Typ: storage.TFloat, Flts: make([]float64, rows)}
		for r := 0; r < rows; r++ {
			iCol.Ints[r] = int64(r % 16)
			fCol.Flts[r] = float64(r) / rows
		}
		db := monetlite.NewDB()
		if err := db.RegisterTable(&storage.Table{Name: "params", Cols: []*storage.Column{iCol, fCol}}); err != nil {
			b.Fatal(err)
		}
		if err := db.RegisterGoUDFElementwise("square_go", bench.SquareGo); err != nil {
			b.Fatal(err)
		}
		return monetlite.Connect(db, "monetdb", "monetdb")
	}
	const paramSQL = `SELECT square_go(i) AS squared_value, f AS fraction FROM params ` +
		`WHERE i >= ? AND i < ? AND f <> ? AND i <> 31 AND i <> 30 AND i <> 29`
	const substSQL = `SELECT square_go(i) AS squared_value, f AS fraction FROM params ` +
		`WHERE i >= %d AND i < %d AND f <> %g AND i <> 31 AND i <> 30 AND i <> 29`

	b.Run("unprepared", func(b *testing.B) {
		conn := build(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := int64(i % 8)
			sql := fmt.Sprintf(substSQL, lo, lo+6, float64(i%97)+1.5)
			if _, err := conn.Exec(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		conn := build(b)
		stmt, err := conn.Prepare(paramSQL)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := int64(i % 8)
			if _, err := stmt.Query(lo, lo+6, float64(i%97)+1.5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plan-cache", func(b *testing.B) {
		conn := build(b)
		sql := fmt.Sprintf(substSQL, 2, 8, 1.5)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := conn.Exec(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPrepareExecWire is the same comparison over the wire v2
// transport: MsgExecStmt (stmt id + typed binds) vs per-call MsgQuery with
// formatted literals, same connection, same result decoding.
func BenchmarkPrepareExecWire(b *testing.B) {
	fx, err := bench.StartServer(`CREATE TABLE params (i INTEGER, f DOUBLE)`)
	if err != nil {
		b.Fatal(err)
	}
	defer fx.Close()
	boot := monetlite.Connect(fx.DB, "monetdb", "monetdb")
	for r := 0; r < 64; r++ {
		if _, err := boot.Exec(fmt.Sprintf(`INSERT INTO params VALUES (%d, %g)`, r%16, float64(r)/64)); err != nil {
			b.Fatal(err)
		}
	}
	if err := fx.DB.RegisterGoUDFElementwise("square_go", bench.SquareGo); err != nil {
		b.Fatal(err)
	}
	const paramSQL = `SELECT square_go(i) AS sq FROM params WHERE i >= ? AND i < ? AND f <> ?`
	const substSQL = `SELECT square_go(i) AS sq FROM params WHERE i >= %d AND i < %d AND f <> %g`

	b.Run("unprepared", func(b *testing.B) {
		cli, err := monetlite.DialContext(ctx, fx.Params)
		if err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := i % 8
			sql := fmt.Sprintf(substSQL, lo, lo+6, float64(i%97)+1.5)
			if _, _, err := cli.Query(ctx, sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		cli, err := monetlite.DialContext(ctx, fx.Params)
		if err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
		stmt, err := cli.Prepare(ctx, paramSQL)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := int64(i % 8)
			if _, _, err := stmt.Query(ctx, lo, lo+6, float64(i%97)+1.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E6: nested UDFs ----

func nestedFixture(b *testing.B) *bench.Fixture {
	b.Helper()
	setup := []string{
		`CREATE TABLE trainingset (data DOUBLE, labels INTEGER)`,
		`CREATE TABLE testingset (data DOUBLE, labels INTEGER)`,
	}
	setup = append(setup, bench.MLInserts(30, 30)...)
	setup = append(setup, bench.TrainRnforest, bench.FindBestClassifier)
	fx, err := bench.StartServer(setup...)
	if err != nil {
		b.Fatal(err)
	}
	return fx
}

func BenchmarkNestedUDFServer(b *testing.B) {
	fx := nestedFixture(b)
	defer fx.Close()
	conn := monetlite.Connect(fx.DB, "monetdb", "monetdb")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Exec(`SELECT n_estimators FROM find_best_classifier(3)`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNestedUDFLocal(b *testing.B) {
	fx := nestedFixture(b)
	defer fx.Close()
	settings := devudf.DefaultSettings()
	settings.Connection = fx.Params
	settings.DebugQuery = `SELECT * FROM find_best_classifier(3)`
	c, err := devudf.Open(ctx, settings, devudf.WithFS(core.NewMemFS(nil)))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ImportUDFs(ctx, "find_best_classifier"); err != nil {
		b.Fatal(err)
	}
	if _, err := c.ExtractInputs(ctx, "find_best_classifier"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunLocal(ctx, "find_best_classifier"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E7: in-DB vs client pull ----

func BenchmarkInDBVsClient(b *testing.B) {
	const rows = 100_000
	fx, done := startNumbers(b, rows)
	defer done()
	b.Run("in-DB", func(b *testing.B) {
		cli, err := monetlite.DialContext(ctx, fx.Params)
		if err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := cli.Query(ctx, `SELECT mean_deviation(i) FROM numbers`); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(cli.BytesRead)/float64(b.N), "wireB/op")
	})
	b.Run("client-pull", func(b *testing.B) {
		cli, err := monetlite.DialContext(ctx, fx.Params)
		if err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
		analysis := clientAnalysis(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, tbl, err := cli.Query(ctx, `SELECT i FROM numbers`)
			if err != nil {
				b.Fatal(err)
			}
			if err := analysis(tbl.Cols[0].Ints); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(cli.BytesRead)/float64(b.N), "wireB/op")
	})
}

// clientAnalysis builds the client-side Python analysis once (interpreter
// and parse reused, matching a data scientist's long-lived session).
func clientAnalysis(b *testing.B) func([]int64) error {
	b.Helper()
	src := "def mean_deviation(column):\n"
	for _, ln := range strings.Split(bench.MeanDeviationFixedBody, "\n") {
		src += "    " + ln + "\n"
	}
	mod, err := script.Parse("client", src)
	if err != nil {
		b.Fatal(err)
	}
	in := script.NewInterp()
	env, err := in.Run(mod)
	if err != nil {
		b.Fatal(err)
	}
	fn, _ := env.Get("mean_deviation")
	return func(col []int64) error {
		items := make([]script.Value, len(col))
		for i, v := range col {
			items[i] = script.IntVal(v)
		}
		_, err := in.Call(fn, []script.Value{script.NewList(items...)})
		return err
	}
}

// ---- v2 transport: streaming vs buffered result transfer ----

// BenchmarkWireTransfer pits consuming a chunked result stream batch by
// batch against buffering the same stream into one table, plus a
// pooled-connection variant — the transport side of the §2.2
// transfer-cost argument.
func BenchmarkWireTransfer(b *testing.B) {
	const rows = 200_000
	fx, err := bench.StartServer(
		`CREATE TABLE numbers (i INTEGER)`,
		bench.NumbersInsert("numbers", rows),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer fx.Close()
	// stream aggressively so the benchmark exercises the chunked path
	fx.Server.StreamThreshold = 64 << 10

	b.Run("buffered-v2", func(b *testing.B) {
		cli, err := monetlite.DialContext(ctx, fx.Params)
		if err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, tbl, err := cli.Query(ctx, `SELECT i FROM numbers`)
			if err != nil || tbl.NumRows() != rows {
				b.Fatalf("%v %v", tbl, err)
			}
		}
	})
	b.Run("streaming-v2", func(b *testing.B) {
		cli, err := monetlite.DialContext(ctx, fx.Params)
		if err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rs, err := cli.QueryStream(ctx, `SELECT i FROM numbers`)
			if err != nil {
				b.Fatal(err)
			}
			var sum int64
			got := 0
			for rs.Next() {
				col := rs.Batch().Cols[0]
				for _, v := range col.Ints {
					sum += v
				}
				got += col.Len()
			}
			if err := rs.Err(); err != nil || got != rows {
				b.Fatalf("%d %v", got, err)
			}
			_ = sum
		}
	})
	b.Run("pooled", func(b *testing.B) {
		pool := monetlite.NewPool(fx.Params, 4)
		defer pool.Close()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				_, tbl, err := pool.Query(ctx, `SELECT i FROM numbers`)
				if err != nil || tbl.NumRows() != rows {
					b.Fatalf("%v %v", tbl, err)
				}
			}
		})
	})
}

// ---- substrate microbenchmarks ----

func BenchmarkPyLiteInterpreter(b *testing.B) {
	mod, err := script.Parse("bench", `
total = 0
for i in range(0, 1000):
    total += i * i
`)
	if err != nil {
		b.Fatal(err)
	}
	in := script.NewInterp()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Run(mod); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPyLiteUDF times the interpreter's share of the two UDFs the repo
// benchmark scans with, bound the way the engine binds them (body wrapped
// in a def, one Call per column): agg is mean_deviation over 50k rows, map
// is square_vec over 20k, hooked is agg under a no-op trace hook (what a
// debug session adds before it decides anything).
func BenchmarkPyLiteUDF(b *testing.B) {
	column := func(n int) script.Value {
		items := make([]script.Value, n)
		for i := range items {
			items[i] = script.IntVal(int64(i*7919) % 100_000)
		}
		return script.NewList(items...)
	}
	for _, bc := range []struct {
		leg, name, param, body string
		rows                   int
		hooked                 bool
	}{
		{"agg", "mean_deviation", "column", bench.MeanDeviationFixedBody, 50_000, false},
		{"map", "square_vec", "x", "out = []\nfor v in x:\n    out.append(v * v)\nreturn out", 20_000, false},
		{"hooked", "mean_deviation", "column", bench.MeanDeviationFixedBody, 50_000, true},
	} {
		b.Run(bc.leg, func(b *testing.B) {
			mod, err := script.Parse(bc.name, transform.WrapFunction(bc.name, []string{bc.param}, bc.body))
			if err != nil {
				b.Fatal(err)
			}
			in := script.NewInterp()
			env, err := in.Run(mod)
			if err != nil {
				b.Fatal(err)
			}
			fn, _ := env.Get(bc.name)
			if bc.hooked {
				in.Trace = func(*script.Interp, script.TraceEvent) error { return nil }
			}
			args := []script.Value{column(bc.rows)}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := in.Call(fn, args); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bc.rows), "ns/row")
		})
	}
}

func BenchmarkPickleRoundTrip(b *testing.B) {
	items := make([]script.Value, 10_000)
	for i := range items {
		items[i] = script.IntVal(int64(i))
	}
	v := script.NewList(items...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := script.Marshal(v)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := script.Unmarshal(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLParse(b *testing.B) {
	sql := `SELECT region, COUNT(*) AS n, SUM(amount) / COUNT(*) AS mean
FROM sales WHERE amount > 10 AND region <> 'x' GROUP BY region ORDER BY n DESC LIMIT 10`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransferPack(b *testing.B) {
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	for _, o := range []transfer.Options{
		{},
		{Compress: true},
		{Encrypt: true, Seed: 3},
		{Compress: true, Encrypt: true, Seed: 3},
	} {
		b.Run(fmt.Sprintf("compress=%v/encrypt=%v", o.Compress, o.Encrypt), func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				packed, err := transfer.Pack(payload, "pw", o)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := transfer.Unpack(packed, "pw"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- durability: WAL append overhead on the INSERT path ----

// BenchmarkWALInsert compares a plain in-memory INSERT with the same
// INSERT committed through the write-ahead log (group-commit mode, the
// monetlited -data default). The acceptance bar for durable storage is
// staying under 2x the in-memory cost per statement.
func BenchmarkWALInsert(b *testing.B) {
	const insert = `INSERT INTO bench_wal VALUES (1, 'x'), (2, 'y'), (3, 'z')`
	run := func(b *testing.B, durable, obsOn bool) {
		db := monetlite.NewDB()
		db.FS = core.NewMemFS(nil)
		var reg *monetlite.Registry
		if obsOn {
			reg = monetlite.NewRegistry()
			db.EnableObs(reg)
		}
		if durable {
			// Auto-checkpoints off: this measures the per-statement append
			// overhead, not snapshot cadence (checkpoint cost is bounded and
			// amortized over SnapshotBytes of log in production).
			m, err := wal.Open(b.TempDir(), db, wal.Options{SnapshotBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			if obsOn {
				m.EnableObs(reg)
			}
		}
		conn := monetlite.Connect(db, "monetdb", "monetdb")
		if _, err := conn.Exec(`CREATE TABLE bench_wal (i INTEGER, s STRING)`); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		if obsOn {
			for i := 0; i < b.N; i++ {
				tr := monetlite.AcquireTrace(insert, "monetdb")
				_, err := conn.ExecWith(monetlite.ExecOpts{Trace: tr}, insert)
				monetlite.ReleaseTrace(tr)
				if err != nil {
					b.Fatal(err)
				}
			}
			return
		}
		for i := 0; i < b.N; i++ {
			if _, err := conn.Exec(insert); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("in-memory", func(b *testing.B) { run(b, false, false) })
	b.Run("wal", func(b *testing.B) { run(b, true, false) })
	// The durable leg with metrics and per-query tracing on (counters,
	// fsync histogram, exec + WAL spans): the envelope costs a fixed
	// ~0.4µs per statement — five monotonic clock reads (~65ns each
	// under a virtualized clock) plus a pooled trace, zero allocations —
	// which on this deliberately tiny 2-3µs INSERT reads as ~20%. The
	// CI gate holds the ratio under 1.35x to catch real regressions (one
	// stray per-query allocation reads as +25% on top); the headline <5%
	// instrumentation gate is the plain legs against the committed
	// BENCH_pr.json baselines, which run with obs dormant exactly as a
	// monetlited without -metrics-addr does.
	b.Run("wal-obs", func(b *testing.B) { run(b, true, true) })
}

// BenchmarkSustainedLoad measures per-statement cost under sustained
// concurrent load through the full resilience stack: a server with
// admission control armed (connection cap, bounded per-connection
// queues, a generous query timeout — every statement runs with an
// interrupt installed), driven by a retrying pool from GOMAXPROCS
// worker goroutines. ns/op is end-to-end wire latency per statement
// with all cancellation checkpoints live; the CI gate watches it
// against the committed baseline so the resilience layer's per-query
// bookkeeping stays in the noise.
func BenchmarkSustainedLoad(b *testing.B) {
	const rows = 1024
	iCol := &storage.Column{Name: "i", Typ: storage.TInt, Ints: make([]int64, rows)}
	for r := 0; r < rows; r++ {
		iCol.Ints[r] = int64(r % 128)
	}
	db := monetlite.NewDB()
	db.FS = core.NewMemFS(nil)
	if err := db.RegisterTable(&storage.Table{Name: "load", Cols: []*storage.Column{iCol}}); err != nil {
		b.Fatal(err)
	}
	srv := monetlite.NewServer("demo", "monetdb", "monetdb", db)
	srv.MaxConns = 64
	srv.MaxQueueDepth = 128
	srv.QueryTimeout = 30 * time.Second
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	i := strings.LastIndexByte(addr, ':')
	port := 0
	for _, ch := range addr[i+1:] {
		port = port*10 + int(ch-'0')
	}
	params := monetlite.ConnParams{
		Host: addr[:i], Port: port, Database: "demo",
		User: "monetdb", Password: "monetdb",
	}
	b.Run("pooled", func(b *testing.B) {
		pool := monetlite.NewPool(params, 8)
		defer pool.Close()
		pool.EnableRetry(monetlite.RetryPolicy{MaxAttempts: 3})
		// Warm the pool so dials happen outside the timed region.
		if _, _, err := pool.Query(ctx, `SELECT COUNT(*) AS n FROM load`); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, _, err := pool.Query(ctx, `SELECT COUNT(*) AS n, SUM(i) AS s FROM load WHERE i < 64`); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

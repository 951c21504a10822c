// Command experiments regenerates every table and figure of the paper plus
// a quantitative run of each efficiency claim the demo asserts; each
// experiment's heading names the paper artefact it reproduces.
//
//	experiments            run everything at the default scale
//	experiments -only E4   run one experiment
//	experiments -scale 3   multiply workload sizes
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/devudf"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/script"
	"repro/internal/transform"
	"repro/monetlite"
)

// ctx is the background context the experiment drivers pass to the v2 API.
var ctx = context.Background()

func main() {
	only := flag.String("only", "", "run a single experiment (T1, F1, E1..E7, SA, SB)")
	scale := flag.Int("scale", 1, "workload scale multiplier")
	flag.Parse()
	if err := run(*only, *scale, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run writes the report of every experiment, or of the one whose id is
// only, to w.
func run(only string, scale int, w io.Writer) error {
	experiments := []struct {
		id   string
		name string
		run  func(io.Writer, int) error
	}{
		{"T1", "Table 1: development-environment market share", expT1},
		{"F1", "Figure 1: menu integration (see `devudf menu`)", expF1},
		{"E1", "§2.1 compression: transfer bytes/time vs data size", expE1},
		{"E2", "§2.1 sampling: transfer vs sample size", expE2},
		{"E3", "§2.2 encryption overhead", expE3},
		{"E4", "headline: debug-cycle cost, traditional vs devUDF", expE4},
		{"E5", "§2.4 processing models: operator- vs tuple-at-a-time", expE5},
		{"E6", "§2.3 nested UDFs: server vs local execution", expE6},
		{"E7", "§1 motivation: in-DB UDF vs client-side pull", expE7},
		{"SA", "Scenario A: semantic bug in mean_deviation", expSA},
		{"SB", "Scenario B: data-dependent loader bug", expSB},
	}
	ran := 0
	for _, e := range experiments {
		if only != "" && !strings.EqualFold(only, e.id) {
			continue
		}
		fmt.Fprintf(w, "\n=== %s — %s ===\n", e.id, e.name)
		if err := e.run(w, scale); err != nil {
			return fmt.Errorf("%s failed: %w", e.id, err)
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matches %q", only)
	}
	return nil
}

func expT1(w io.Writer, _ int) error {
	fmt.Fprintf(w, "%-22s %-7s %s\n", "Name", "Share", "Type")
	for _, r := range bench.Table1 {
		fmt.Fprintf(w, "%-22s %5.1f%%  %s\n", r.Name, r.Share, r.Kind)
	}
	ide, editor := bench.IDEShare()
	fmt.Fprintf(w, "\nIDE share %.1f%% vs text-editor share %.1f%% (ratio %.1fx) — the paper's\n",
		ide, editor, ide/editor)
	fmt.Fprintln(w, "argument for meeting developers inside their IDE.")
	return nil
}

func expF1(w io.Writer, _ int) error {
	fmt.Fprintln(w, `Main Menu
└── UDF Development
    ├── Settings...            (Fig. 2: connection, debug query, transfer options)
    ├── Import UDFs...         (Fig. 3a)
    └── Export UDFs...         (Fig. 3b)
Figures 2/3 are reproduced by the golden-tested 'devudf settings/list/import/export' commands.`)
	return nil
}

// extractOnce runs one rewritten-extract round trip and reports payload
// bytes and elapsed time.
func extractOnce(c *devudf.Client, udf string) (payload int, elapsed time.Duration, err error) {
	start := time.Now()
	info, err := c.ExtractInputs(ctx, udf)
	if err != nil {
		return 0, 0, err
	}
	return info.PayloadBytes, time.Since(start), nil
}

func newFixtureClient(fx *bench.Fixture, query string, opts devudf.TransferOptions) (*devudf.Client, error) {
	settings := devudf.DefaultSettings()
	settings.Connection = fx.Params
	settings.DebugQuery = query
	settings.Transfer = opts
	return devudf.Open(ctx, settings, devudf.WithFS(core.NewMemFS(nil)))
}

func expE1(w io.Writer, scale int) error {
	fmt.Fprintf(w, "%-10s %-10s %-14s %-12s %s\n", "rows", "compress", "payloadBytes", "time", "ratio")
	for _, rows := range []int{1000 * scale, 10000 * scale, 100000 * scale} {
		fx, err := bench.StartServer(
			`CREATE TABLE numbers (i INTEGER)`,
			bench.NumbersInsert("numbers", rows),
			bench.MeanDeviationBuggy,
		)
		if err != nil {
			return err
		}
		var rawBytes int
		for _, compress := range []bool{false, true} {
			c, err := newFixtureClient(fx, `SELECT mean_deviation(i) FROM numbers`,
				devudf.TransferOptions{Compress: compress})
			if err != nil {
				fx.Close()
				return err
			}
			if _, err := c.ImportUDFs(ctx, "mean_deviation"); err != nil {
				fx.Close()
				return err
			}
			payload, elapsed, err := extractOnce(c, "mean_deviation")
			c.Close()
			if err != nil {
				fx.Close()
				return err
			}
			ratio := ""
			if !compress {
				rawBytes = payload
			} else if payload > 0 {
				ratio = fmt.Sprintf("%.2fx smaller", float64(rawBytes)/float64(payload))
			}
			fmt.Fprintf(w, "%-10d %-10v %-14d %-12s %s\n", rows, compress, payload, elapsed.Round(time.Microsecond), ratio)
		}
		fx.Close()
	}
	return nil
}

func expE2(w io.Writer, scale int) error {
	rows := 100000 * scale
	fx, err := bench.StartServer(
		`CREATE TABLE numbers (i INTEGER)`,
		bench.NumbersInsert("numbers", rows),
		bench.MeanDeviationBuggy,
	)
	if err != nil {
		return err
	}
	defer fx.Close()
	fmt.Fprintf(w, "%-12s %-12s %-14s %s\n", "sampleSize", "shippedRows", "payloadBytes", "time")
	for _, sample := range []int{0, rows / 2, rows / 10, rows / 100} {
		c, err := newFixtureClient(fx, `SELECT mean_deviation(i) FROM numbers`,
			devudf.TransferOptions{SampleSize: sample, Seed: 42})
		if err != nil {
			return err
		}
		if _, err := c.ImportUDFs(ctx, "mean_deviation"); err != nil {
			c.Close()
			return err
		}
		start := time.Now()
		info, err := c.ExtractInputs(ctx, "mean_deviation")
		elapsed := time.Since(start)
		c.Close()
		if err != nil {
			return err
		}
		label := "all"
		if sample > 0 {
			label = fmt.Sprintf("%d", sample)
		}
		fmt.Fprintf(w, "%-12s %-12d %-14d %s\n", label, info.SampleRows, info.PayloadBytes, elapsed.Round(time.Microsecond))
	}
	return nil
}

func expE3(w io.Writer, scale int) error {
	fmt.Fprintf(w, "%-10s %-10s %-14s %s\n", "rows", "encrypt", "payloadBytes", "time")
	for _, rows := range []int{10000 * scale, 100000 * scale} {
		fx, err := bench.StartServer(
			`CREATE TABLE numbers (i INTEGER)`,
			bench.NumbersInsert("numbers", rows),
			bench.MeanDeviationBuggy,
		)
		if err != nil {
			return err
		}
		for _, encrypt := range []bool{false, true} {
			c, err := newFixtureClient(fx, `SELECT mean_deviation(i) FROM numbers`,
				devudf.TransferOptions{Encrypt: encrypt, Seed: 1})
			if err != nil {
				fx.Close()
				return err
			}
			if _, err := c.ImportUDFs(ctx, "mean_deviation"); err != nil {
				fx.Close()
				c.Close()
				return err
			}
			payload, elapsed, err := extractOnce(c, "mean_deviation")
			c.Close()
			if err != nil {
				fx.Close()
				return err
			}
			fmt.Fprintf(w, "%-10d %-10v %-14d %s\n", rows, encrypt, payload, elapsed.Round(time.Microsecond))
		}
		fx.Close()
	}
	return nil
}

// expE4 is the headline comparison: k fix-probe iterations done the
// traditional way (re-CREATE on the server + re-run the full query
// remotely, every time) versus the devUDF way (extract inputs once, then
// iterate locally).
func expE4(w io.Writer, scale int) error {
	rows := 50000 * scale
	fx, err := bench.StartServer(
		`CREATE TABLE numbers (i INTEGER)`,
		bench.NumbersInsert("numbers", rows),
		bench.MeanDeviationBuggy,
	)
	if err != nil {
		return err
	}
	defer fx.Close()
	query := `SELECT mean_deviation(i) FROM numbers`
	// devUDFLoop times one extract followed by k edit+local-run probes.
	devUDFLoop := func(k int, opts devudf.TransferOptions) (time.Duration, error) {
		c, err := newFixtureClient(fx, query, opts)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		if _, err := c.ImportUDFs(ctx, "mean_deviation"); err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := c.ExtractInputs(ctx, "mean_deviation"); err != nil {
			return 0, err
		}
		for i := 0; i < k; i++ {
			if err := c.EditBody("mean_deviation", bench.MeanDeviationFixedBody); err != nil {
				return 0, err
			}
			if _, err := c.RunLocal(ctx, "mean_deviation"); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	fmt.Fprintf(w, "input: %d rows; one probe = edit body + observe result;\n", rows)
	fmt.Fprintf(w, "devUDF pays one extract, then iterates locally (optionally on a 1%% sample —\n")
	fmt.Fprintf(w, "the §2.1 option offered exactly to alleviate this overhead)\n")
	fmt.Fprintf(w, "%-12s %-15s %-15s %-18s %s\n", "iterations", "traditional", "devUDF(full)", "devUDF(1% sample)", "speedup(sampled)")
	for _, k := range []int{1, 2, 5, 10} {
		// traditional: k × (CREATE OR REPLACE + remote query)
		c, err := newFixtureClient(fx, query, devudf.TransferOptions{})
		if err != nil {
			return err
		}
		if _, err := c.ImportUDFs(ctx, "mean_deviation"); err != nil {
			c.Close()
			return err
		}
		info, _, err := c.Project.LoadUDF("mean_deviation")
		if err != nil {
			c.Close()
			return err
		}
		startTrad := time.Now()
		for i := 0; i < k; i++ {
			if _, err := c.TraditionalCycle(ctx, info, bench.MeanDeviationFixedBody); err != nil {
				c.Close()
				return err
			}
		}
		trad := time.Since(startTrad)
		c.Close()

		devFull, err := devUDFLoop(k, devudf.TransferOptions{})
		if err != nil {
			return err
		}
		devSampled, err := devUDFLoop(k, devudf.TransferOptions{SampleSize: rows / 100, Seed: 42})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12d %-15s %-15s %-18s %.2fx\n", k,
			trad.Round(time.Microsecond), devFull.Round(time.Microsecond),
			devSampled.Round(time.Microsecond), float64(trad)/float64(devSampled))
	}
	return nil
}

func expE5(w io.Writer, scale int) error {
	fmt.Fprintf(w, "%-10s %-22s %-14s %s\n", "rows", "model", "time", "slowdown")
	for _, rows := range []int{1000 * scale, 10000 * scale} {
		var opTime time.Duration
		for _, mode := range []monetlite.Mode{monetlite.ModeOperatorAtATime, monetlite.ModeTupleAtATime} {
			fx, err := bench.StartServer(
				`CREATE TABLE numbers (i INTEGER)`,
				bench.NumbersInsert("numbers", rows),
				bench.SquareUDF, bench.SquareVectorUDF,
			)
			if err != nil {
				return err
			}
			fx.DB.Mode = mode
			conn := monetlite.Connect(fx.DB, "monetdb", "monetdb")
			sql := `SELECT square_vec(i) FROM numbers`
			if mode == monetlite.ModeTupleAtATime {
				sql = `SELECT square(i) FROM numbers`
			}
			start := time.Now()
			if _, err := conn.Exec(sql); err != nil {
				fx.Close()
				return err
			}
			elapsed := time.Since(start)
			slow := ""
			if mode == monetlite.ModeOperatorAtATime {
				opTime = elapsed
			} else if opTime > 0 {
				slow = fmt.Sprintf("%.1fx slower", float64(elapsed)/float64(opTime))
			}
			fmt.Fprintf(w, "%-10d %-22s %-14s %s\n", rows, mode, elapsed.Round(time.Microsecond), slow)
			fx.Close()
		}
	}
	return nil
}

func expE6(w io.Writer, scale int) error {
	setup := []string{
		`CREATE TABLE trainingset (data DOUBLE, labels INTEGER)`,
		`CREATE TABLE testingset (data DOUBLE, labels INTEGER)`,
	}
	setup = append(setup, bench.MLInserts(30*scale, 30*scale)...)
	setup = append(setup, bench.TrainRnforest, bench.FindBestClassifier)
	fx, err := bench.StartServer(setup...)
	if err != nil {
		return err
	}
	defer fx.Close()
	conn := monetlite.Connect(fx.DB, "monetdb", "monetdb")

	startServer := time.Now()
	res, err := conn.Exec(`SELECT n_estimators FROM find_best_classifier(3)`)
	if err != nil {
		return err
	}
	serverTime := time.Since(startServer)
	serverBest := res.Table.Cols[0].Ints[0]

	c, err := newFixtureClient(fx, `SELECT * FROM find_best_classifier(3)`, devudf.TransferOptions{})
	if err != nil {
		return err
	}
	defer c.Close()
	imported, err := c.ImportUDFs(ctx, "find_best_classifier")
	if err != nil {
		return err
	}
	if _, err := c.ExtractInputs(ctx, "find_best_classifier"); err != nil {
		return err
	}
	startLocal := time.Now()
	local, err := c.RunLocal(ctx, "find_best_classifier")
	if err != nil {
		return err
	}
	localTime := time.Since(startLocal)
	fmt.Fprintf(w, "imported (incl. nested): %s\n", strings.Join(imported, ", "))
	fmt.Fprintf(w, "%-22s %-14s best n_estimators\n", "where", "time")
	fmt.Fprintf(w, "%-22s %-14s %d\n", "server (in-DB)", serverTime.Round(time.Microsecond), serverBest)
	fmt.Fprintf(w, "%-22s %-14s %s\n", "devUDF (local+nested)", localTime.Round(time.Microsecond), local.Value.Repr())
	return nil
}

func expE7(w io.Writer, scale int) error {
	fmt.Fprintf(w, "%-10s %-22s %-14s %s\n", "rows", "strategy", "time", "bytes over wire")
	for _, rows := range []int{10000 * scale, 100000 * scale} {
		fx, err := bench.StartServer(
			`CREATE TABLE numbers (i INTEGER)`,
			bench.NumbersInsert("numbers", rows),
			bench.MeanDeviationBuggy,
		)
		if err != nil {
			return err
		}
		// in-DB: ship only the answer
		cli, err := monetlite.DialContext(ctx, fx.Params)
		if err != nil {
			fx.Close()
			return err
		}
		start := time.Now()
		if _, _, err := cli.Query(ctx, `SELECT mean_deviation(i) FROM numbers`); err != nil {
			fx.Close()
			return err
		}
		inDB := time.Since(start)
		inDBBytes := cli.BytesRead
		// client-side: pull the column, run the same Python analysis in
		// the client's interpreter (the paper's data-scientist scenario:
		// Python on both sides — only the data's location differs)
		start = time.Now()
		_, tbl, err := cli.Query(ctx, `SELECT i FROM numbers`)
		if err != nil {
			fx.Close()
			return err
		}
		if err := clientSideMeanDeviation(tbl.Cols[0].Ints); err != nil {
			fx.Close()
			return err
		}
		pull := time.Since(start)
		pullBytes := cli.BytesRead - inDBBytes
		fmt.Fprintf(w, "%-10d %-22s %-14s %d\n", rows, "in-DB UDF", inDB.Round(time.Microsecond), inDBBytes)
		fmt.Fprintf(w, "%-10d %-22s %-14s %d\n", rows, "client pull+compute", pull.Round(time.Microsecond), pullBytes)
		cli.Close()
		fx.Close()
	}
	return nil
}

func expSA(w io.Writer, _ int) error {
	fx, err := bench.StartServer(
		`CREATE TABLE numbers (i INTEGER)`,
		`INSERT INTO numbers VALUES (1), (2), (3), (4), (100)`,
		bench.MeanDeviationBuggy,
	)
	if err != nil {
		return err
	}
	defer fx.Close()
	conn := monetlite.Connect(fx.DB, "monetdb", "monetdb")
	res, err := conn.Exec(`SELECT mean_deviation(i) FROM numbers`)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "buggy result on server: %g (differences cancel — the Listing 4 bug)\n",
		res.Table.Cols[0].Flts[0])

	c, err := newFixtureClient(fx, `SELECT mean_deviation(i) FROM numbers`, devudf.TransferOptions{})
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.ImportUDFs(ctx, "mean_deviation"); err != nil {
		return err
	}
	if _, err := c.ExtractInputs(ctx, "mean_deviation"); err != nil {
		return err
	}
	sess, err := c.NewDebugSession(ctx, "mean_deviation", false)
	if err != nil {
		return err
	}
	src, _ := c.Project.LoadUDFSource("mean_deviation")
	line := 0
	for i, ln := range strings.Split(src, "\n") {
		if strings.Contains(ln, "distance += column[i] - mean") {
			line = i + 1
		}
	}
	sess.SetBreakpoint(line, "")
	ev := sess.Start()
	for ev.Reason == devudf.ReasonBreakpoint {
		d, err := sess.Eval("distance")
		if err != nil {
			return err
		}
		i, _ := sess.Eval("i")
		fmt.Fprintf(w, "  breakpoint at line %d: i=%s distance=%s\n", ev.Line, i.Repr(), d.Repr())
		ev = sess.Continue()
	}
	fmt.Fprintln(w, "debugger exposes a NEGATIVE running distance — a sum of absolute")
	fmt.Fprintln(w, "deviations can never be negative, so the abs() is missing.")

	if err := c.EditBody("mean_deviation", bench.MeanDeviationFixedBody); err != nil {
		return err
	}
	local, err := c.RunLocal(ctx, "mean_deviation")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fixed locally: %s\n", local.Value.Repr())
	if err := c.ExportUDFs(ctx, "mean_deviation"); err != nil {
		return err
	}
	res, err = conn.Exec(`SELECT mean_deviation(i) FROM numbers`)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "after export, server computes: %g\n", res.Table.Cols[0].Flts[0])
	return nil
}

func expSB(w io.Writer, _ int) error {
	fs := core.NewMemFS(map[string]string{
		"csvs/a.csv": "1\n2\n3\n",
		"csvs/b.csv": "4\n5\n",
		"csvs/c.csv": "100\n",
	})
	fx, err := bench.StartServer()
	if err != nil {
		return err
	}
	defer fx.Close()
	fx.DB.FS = fs
	conn := monetlite.Connect(fx.DB, "monetdb", "monetdb")
	if _, err := conn.Exec(bench.LoadNumbersBuggy); err != nil {
		return err
	}
	res, err := conn.Exec(`SELECT COUNT(*) AS n, SUM(i) AS total FROM loadNumbers('csvs')`)
	if err != nil {
		return err
	}
	n := res.Table.Cols[0].Ints[0]
	total := res.Table.Cols[1].Ints[0]
	fmt.Fprintf(w, "buggy loader: %d rows, sum %d (c.csv with value 100 silently skipped)\n", n, total)

	c, err := newFixtureClient(fx, `SELECT * FROM loadNumbers('csvs')`, devudf.TransferOptions{})
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.ImportUDFs(ctx, "loadNumbers"); err != nil {
		return err
	}
	fixed := `import os
files = os.listdir(path)
result = []
for i in range(0, len(files)):
    file = open(path + "/" + files[i], "r")
    for line in file:
        result.append(int(line))
return result`
	if err := c.EditBody("loadNumbers", fixed); err != nil {
		return err
	}
	if err := c.ExportUDFs(ctx, "loadNumbers"); err != nil {
		return err
	}
	res, err = conn.Exec(`SELECT COUNT(*) AS n, SUM(i) AS total FROM loadNumbers('csvs')`)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fixed loader:  %d rows, sum %d (range was right-exclusive already —\n", res.Table.Cols[0].Ints[0], res.Table.Cols[1].Ints[0])
	fmt.Fprintln(w, "the 'len(files) - 1' bound was the data-dependent bug)")
	return nil
}

// clientSideMeanDeviation runs the paper's analysis in a client-local
// PyLite interpreter over a pulled column — the "transfer the data to the
// analytical tool" strategy the introduction argues against.
func clientSideMeanDeviation(col []int64) error {
	items := make([]script.Value, len(col))
	for i, v := range col {
		items[i] = script.IntVal(v)
	}
	body := transform.WrapFunction("mean_deviation", []string{"column"},
		strings.ReplaceAll(bench.MeanDeviationFixedBody, "\r", ""))
	mod, err := script.Parse("client", body)
	if err != nil {
		return err
	}
	in := script.NewInterp()
	env, err := in.Run(mod)
	if err != nil {
		return err
	}
	fn, _ := env.Get("mean_deviation")
	_, err = in.Call(fn, []script.Value{script.NewList(items...)})
	return err
}

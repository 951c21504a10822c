// Quickstart: the complete devUDF workflow in one file.
//
// It boots an in-process database server, stores a Python UDF in it the
// traditional way, then uses the devUDF public API to import the UDF into a
// local project, extract its input data, run and edit it locally, and
// export the result back — the full loop of the paper's Figures 1–3.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"strconv"

	"repro/devudf"
	"repro/internal/core"
	"repro/monetlite"
)

// ctx is the background context the example threads through the v2 API.
var ctx = context.Background()

func main() {
	// 1. A running database server with data and a stored UDF.
	db := monetlite.NewDB()
	db.FS = core.NewMemFS(nil)
	srv := monetlite.NewServer("demo", "monetdb", "monetdb", db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	boot := monetlite.Connect(db, "monetdb", "monetdb")
	for _, sql := range []string{
		`CREATE TABLE measurements (v INTEGER)`,
		`INSERT INTO measurements VALUES (12), (15), (11), (14), (13), (90)`,
		`CREATE FUNCTION spread(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
		    return max(column) - min(column)
		};`,
	} {
		if _, err := boot.Exec(sql); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("server ready on", addr)

	// 2. Configure devUDF exactly like the settings window (Fig. 2).
	host, port := splitAddr(addr)
	settings := devudf.DefaultSettings()
	settings.Connection = monetlite.ConnParams{
		Host: host, Port: port, Database: "demo",
		User: "monetdb", Password: "monetdb",
	}
	settings.DebugQuery = `SELECT spread(v) FROM measurements`
	settings.Transfer.Compress = true

	client, err := devudf.Open(ctx, settings, devudf.WithFS(core.NewMemFS(nil)))
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// 3. Import the UDF out of the server's meta tables (Fig. 3a).
	imported, err := client.ImportUDFs(ctx, "spread")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("imported:", imported)
	src, _ := client.Project.LoadUDFSource("spread")
	fmt.Println("generated local script (paper Listing 2 shape):")
	fmt.Println(indent(src))

	// 4. Extract the UDF's input data and run locally.
	info, err := client.ExtractInputs(ctx, "spread")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extracted %d rows (%d payload bytes, compressed=%v)\n",
		info.SampleRows, info.PayloadBytes, info.Compressed)
	res, err := client.RunLocal(ctx, "spread")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("local run result:", res.Value.Repr())

	// 5. Edit the body locally — make spread ignore outliers via sorting —
	//    re-run locally, then export back (Fig. 3b).
	err = client.EditBody("spread", `vals = sorted(column)
n = len(vals)
return vals[n - 2] - vals[1]`)
	if err != nil {
		log.Fatal(err)
	}
	res, err = client.RunLocal(ctx, "spread")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("edited local result (outliers trimmed):", res.Value.Repr())
	if err := client.ExportUDFs(ctx, "spread"); err != nil {
		log.Fatal(err)
	}

	// 6. The server now runs the edited version.
	serverRes, err := boot.Exec(`SELECT spread(v) FROM measurements`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("server result after export:", serverRes.Table.Cols[0].FormatValue(0))

	// 7. The iteration loop itself is prepared-statement shaped: the same
	//    UDF-bearing query runs over and over with different thresholds, so
	//    prepare it once and bind per run — parse and plan amortize away
	//    (pool-aware: the statement survives connection churn).
	stmt, err := client.Prepare(ctx, `SELECT spread(v) AS s FROM measurements WHERE v < ?`)
	if err != nil {
		log.Fatal(err)
	}
	defer stmt.Close()
	for _, limit := range []int64{100, 50, 16} {
		out, err := stmt.Query(ctx, limit)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("spread over v < %-3d → %s\n", limit, out.Table.Cols[0].FormatValue(0))
	}
}

func splitAddr(addr string) (string, int) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		log.Fatal(err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		log.Fatal(err)
	}
	return host, port
}

func indent(s string) string {
	out := ""
	for _, ln := range splitKeepAll(s) {
		out += "    " + ln + "\n"
	}
	return out
}

func splitKeepAll(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}

// Command benchgate is the repo's one perf-gate chain: it runs the
// testing.B benchmarks listed in runs three times each, keeps the fastest
// repetition of every row, checks the same-run ratios listed in gates, and
// writes the rows to the path given as its only argument.
//
//	go run ./cmd/benchgate BENCH_new.json     (from the repo root)
//
// A gate divides two rows of the same run on the same machine, so it holds
// on any runner; nothing here reads a recorded baseline. What a change does
// to absolute speed is measured by benchmark/run.sh on alternating
// parent/change pairs. Exit status is 1 when a gate fails or a row it needs
// is missing.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// runs is every benchmark this command executes. The iteration counts are
// fixed so that repetitions, and the rows of different PRs, compare.
var runs = []struct{ pkg, bench, benchtime string }{
	{".", "BenchmarkProcessingModel", "100x"},
	{".", "BenchmarkPrepareExec", "10000x"},
	{".", "BenchmarkWALInsert", "100000x"},
	{"./internal/engine", "BenchmarkFilterAggregate", "5x"},
	{"./internal/engine", "BenchmarkFilterProject", "3x"},
	{"./internal/transfer", "BenchmarkCompress", "20x"},
}

const repetitions = 3

// row is the fastest repetition of one benchmark.
type row struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// gate requires num/den (ns/op of two rows of this run) to be >= or <= limit.
type gate struct {
	name, num, den string
	op             string // ">=" or "<="
	limit          float64
	why            string
}

var gates = []gate{
	{"vectorized-speedup", "BenchmarkFilterAggregate/scalar-reference", "BenchmarkFilterAggregate/vectorized", ">=", 5.0,
		"ISSUE 4's bar: on the 1M-row filtered aggregate the vectorized path stays at least 5x faster than the " +
			"row-at-a-time reference (the test-side refSelect oracle)."},
	{"morsel-parallel", "BenchmarkFilterAggregate/vectorized-parallel", "BenchmarkFilterAggregate/vectorized", "<=", 1.10,
		"Morsel-parallel execution beats the single-threaded vectorized path only where there are several cores; " +
			"on any runner it must at least not lose. The 10% is runner noise."},
	{"adhoc-vs-prepared", "BenchmarkPrepareExec/unprepared", "BenchmarkPrepareExec/prepared", "<=", 1.3,
		"Every statement is a prepared statement: 10k executions of a filter+UDF query with distinct literals formatted " +
			"into the text (fmt.Sprintf in the loop, then shape, plan-cache hit, literal binds) stay within 1.3x of the same " +
			"values bound to a prepared statement. A re-parse per call reads as 2x or more."},
	{"wal-append", "BenchmarkWALInsert/wal", "BenchmarkWALInsert/in-memory", "<=", 2.2,
		"ISSUE 7's bar: a 3-row INSERT committed through the write-ahead log (encode, CRC, write(2), interval fsync) " +
			"stays under 2x the same statement against an in-memory database, plus the 10% noise allowance of the morsel gate."},
	{"obs-aggregate", "BenchmarkFilterAggregate/vectorized-obs", "BenchmarkFilterAggregate/vectorized", "<=", 1.10,
		"The metrics registry and a pooled per-query trace cost a fixed ~0.4us per statement (five monotonic clock " +
			"reads, no allocation), which vanishes on a millisecond scan: measured delta ~0.01%, the 10% is runner noise."},
	{"obs-wal-insert", "BenchmarkWALInsert/wal-obs", "BenchmarkWALInsert/wal", "<=", 1.35,
		"The same fixed ~0.4us on a deliberately tiny 2-3us INSERT reads as ~1.2x; one stray per-query allocation " +
			"reads as +25% on top of that and trips this."},
	{"python-vs-native", "BenchmarkProcessingModel/batch-python", "BenchmarkProcessingModel/native-go", "<=", 14.7,
		"Squaring a 100k-row column in a PYTHON UDF (column wrapped, not converted; numbers unboxed; the body compiled " +
			"to closures by Parse; result taken back as a vector) costs 40-52 ns/row against 4.2-5.7 for the native GO " +
			"runtime on a shared 2-vCPU box. Three runs of this command read 9.2, 11.0 and 8.1 (three before them 9.1, " +
			"12.7 and 12.4), so the limit is the largest plus a third. The sub-millisecond denominator drifts by more " +
			"than that third: by this command's method the tree-walking interpreter read 10.6-13.8, one allocation per " +
			"row 12.1-14.5 and a column boxed again 14.9-21.9, so only the last trips it reliably; " +
			"script.interp_*_ns_per_row in benchmark/run.sh measures the interpreter itself. A faster native path also " +
			"raises this ratio: then re-measure and reset the limit, do not slow it down."},
	{"compress-planes", "BenchmarkCompress/planes", "BenchmarkCompress/plain-deflate", "<=", 0.4,
		"ISSUE 24's bar: the benchmark's extract payload (50 000 pickled ints in [0, 10 000), 9-byte cells) through " +
			"transfer.Compress — stride detected, byte planes, DEFLATE at the default level — against the same DEFLATE " +
			"over the bytes as they are. Measured 0.18 (3.9 ms against 22). Losing the planes reads as 1.0; compressing " +
			"the sample a third way, or the whole payload twice, reads as 0.5 or more."},
}

// Three gates the YAML had are not here: native-go, dormant-obs and
// dormant-cancel compared a run with BENCH_pr.json, a recording of the same
// code re-made on each PR until it passed, so what they measured was how
// far this machine drifts between two minutes (up to 40%), not the change.
// A same-run ratio cannot replace them, because each guards an absolute
// cost and every candidate anchor (batch-python, scalar-reference) moves
// when its own layer is optimised (python-vs-native bounds the interpreter
// from above with the native path as its anchor; it says nothing about the
// native path's own cost). What they meant to protect is measured
// on paired parent/change runs by benchmark/run.sh: native_scan_p50_ms
// (native GO path), insert_mean_us and native_scan_p50_ms with
// obs.trace_overhead_pct (dormant hooks and cancellation checkpoints).

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate OUTPUT.json")
		os.Exit(2)
	}
	var out bytes.Buffer
	for _, r := range runs {
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", "^"+r.bench+"$", "-benchtime", r.benchtime,
			"-benchmem", "-count", strconv.Itoa(repetitions), r.pkg)
		cmd.Stdout = io.MultiWriter(os.Stdout, &out)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %s in %s: %v\n", r.bench, r.pkg, err)
			os.Exit(1)
		}
	}
	rows := parse(out.String(), runtime.GOMAXPROCS(0))
	data, err := render(rows)
	if err == nil {
		err = os.WriteFile(os.Args[1], data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	report, ok := evaluate(rows, gates)
	fmt.Print("\n", report)
	if !ok {
		os.Exit(1)
	}
}

// parse reads `go test -bench -benchmem` output: lines of the form
//
//	BenchmarkX/leg-P   N   v ns/op   v B/op   v allocs/op
//
// where -P is the GOMAXPROCS suffix the testing package appends when procs
// is not 1. Rows come back in order of first appearance, each holding the
// repetition with the lowest ns/op.
func parse(out string, procs int) []row {
	suffix := "-" + strconv.Itoa(procs)
	var rows []row
	index := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iterations, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		r := row{Name: f[0], Iterations: iterations}
		if procs != 1 {
			r.Name = strings.TrimSuffix(r.Name, suffix)
		}
		seen := false
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			switch f[i+1] {
			case "ns/op":
				r.NsPerOp, seen = v, true
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			}
		}
		if !seen {
			continue
		}
		if i, ok := index[r.Name]; !ok {
			index[r.Name] = len(rows)
			rows = append(rows, r)
		} else if r.NsPerOp < rows[i].NsPerOp {
			rows[i] = r
		}
	}
	return rows
}

// evaluate checks every gate against rows, matching row names exactly, and
// returns one report line per gate (plus the gate's reason when it fails).
// A gate whose numerator or denominator row is absent fails.
func evaluate(rows []row, gates []gate) (report string, ok bool) {
	ns := map[string]float64{}
	for _, r := range rows {
		ns[r.Name] = r.NsPerOp
	}
	var b strings.Builder
	ok = true
	for _, g := range gates {
		num, den := ns[g.num], ns[g.den]
		if num == 0 || den == 0 {
			fmt.Fprintf(&b, "FAIL %-20s missing row: %s = %g ns/op, %s = %g ns/op\n", g.name, g.num, num, g.den, den)
			ok = false
			continue
		}
		ratio := num / den
		pass := ratio >= g.limit
		if g.op == "<=" {
			pass = ratio <= g.limit
		}
		verdict := "ok  "
		if !pass {
			verdict = "FAIL"
			ok = false
		}
		fmt.Fprintf(&b, "%s %-20s %s %.0f ns/op / %s %.0f ns/op = %.3f (limit %s %.2f)\n",
			verdict, g.name, g.num, num, g.den, den, ratio, g.op, g.limit)
		if !pass {
			fmt.Fprintf(&b, "     %s\n", g.why)
		}
	}
	return b.String(), ok
}

// render writes rows as a JSON array, one row per line.
func render(rows []row) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("row %s: %w", r.Name, err)
		}
		b.WriteString("  ")
		b.Write(line)
		if i < len(rows)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes(), nil
}

// Command benchgate is the repo's one perf-gate chain. Each gate divides
// the ns/op of two testing.B legs; it runs them as pairs of alternating
// runs, A then B or B then A in an order drawn from a fixed seed, and
// holds the median of the pairs' ratios to its limit. It writes each leg's
// median run and each gate's median, IQR and pair count to the path given
// as its only argument.
//
//	go run ./cmd/benchgate BENCH_new.json     (from the repo root)
//
// A gate divides two runs made side by side on the same machine, so it
// holds on any runner; nothing here reads a recorded baseline. A load phase
// that lands on one leg spoils one pair, not the gate. What a change does
// to absolute speed is measured by benchmark/run.sh on alternating
// parent/change pairs. Exit status is 1 when a gate fails or a leg it
// needs is missing.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// runs is every benchmark family a gate reads, with the package it lives
// in. A leg runs the family's iteration count once; the counts are fixed
// so that runs, and the rows of different PRs, compare.
var runs = []struct{ pkg, bench, benchtime string }{
	{".", "BenchmarkProcessingModel", "100x"},
	{".", "BenchmarkPrepareExec", "10000x"},
	{".", "BenchmarkWALInsert", "100000x"},
	{"./internal/engine", "BenchmarkFilterAggregate", "5x"},
	{"./internal/transfer", "BenchmarkCompress", "20x"},
}

// pairs is how many A/B pairs each gate runs, and seed orders them.
const (
	pairs = 15
	seed  = 2013
)

// row is one run of one benchmark leg.
type row struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// gate requires the median over its pairs of num/den (the ns/op of two
// legs run side by side) to be >= or <= limit.
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
	{"compress-planes", "BenchmarkCompress/planes", "BenchmarkCompress/plain-deflate", "<=", 0.12,
		"The benchmark's extract payload (50 000 pickled ints in [0, 10 000), 9-byte cells) through transfer.Compress — " +
			"stride detected, byte planes, each plane written into the one DEFLATE stream by the encoder its sample picks " +
			"(Huffman only for the value's two bytes, BestSpeed for the tag and zero planes) — against DEFLATE at the " +
			"default level over the bytes as they are. The trials and the segments are coded on every P: three runs on " +
			"a 2-vCPU box read 0.048, 0.048 and 0.045, where one worker coding them in turn read 0.067-0.078. Every " +
			"plane at the default level read 0.135-0.184 beside the one-worker figures, a single default-level stream " +
			"0.165-0.225, and losing the planes reads as 1.0."},
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
	bins, err := os.MkdirTemp("", "benchgate")
	ok := false
	if err == nil {
		ok, err = runPairs(bins)
		os.RemoveAll(bins)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
	}
	if err != nil || !ok {
		os.Exit(1)
	}
}

// runPairs builds each package's test binary once, runs the schedule,
// writes the rows and reports the gates.
func runPairs(bins string) (ok bool, err error) {
	root, err := os.Getwd()
	if err != nil {
		return false, err
	}
	binOf := map[string]string{}
	for i, r := range runs {
		if binOf[r.pkg] != "" {
			continue
		}
		binOf[r.pkg] = filepath.Join(bins, strconv.Itoa(i)+".test")
		cmd := exec.Command("go", "test", "-c", "-o", binOf[r.pkg], r.pkg)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return false, fmt.Errorf("building %s: %w", r.pkg, err)
		}
	}
	procs := runtime.GOMAXPROCS(0)
	legRows := map[string][]row{}
	results := map[string][]pair{}
	for _, st := range schedule(seed, pairs, len(gates)) {
		g, ns := gates[st.gate], map[string]float64{}
		for _, name := range st.legs(g) {
			r, err := runLeg(root, binOf, name, procs)
			if err != nil {
				return false, err
			}
			legRows[name] = append(legRows[name], r)
			ns[name] = r.NsPerOp
		}
		results[g.name] = append(results[g.name], pair{ns[g.num], ns[g.den]})
	}
	report, ok, sums := evaluate(results, gates)
	data, err := render(legRows, sums)
	if err == nil {
		err = os.WriteFile(os.Args[1], data, 0o644)
	}
	fmt.Print("\n", report)
	return ok, err
}

// step is one pair of a gate: its two legs, the numerator first unless
// swapped.
type step struct {
	gate, pair int
	swapped    bool
}

func (st step) legs(g gate) [2]string {
	if st.swapped {
		return [2]string{g.den, g.num}
	}
	return [2]string{g.num, g.den}
}

// schedule runs pair p of every gate before pair p+1 of any, so that each
// gate's pairs spread over the whole run, and draws each pair's order from
// seed: a leg runs first in about half its pairs, and the same seed gives
// the same schedule.
func schedule(seed uint64, pairs, gates int) []step {
	rng := rand.New(rand.NewPCG(seed, seed))
	var steps []step
	for p := 0; p < pairs; p++ {
		for g := 0; g < gates; g++ {
			steps = append(steps, step{gate: g, pair: p, swapped: rng.IntN(2) == 1})
		}
	}
	return steps
}

// runLeg runs one leg (Family/leg) once, from its package's directory as go
// test would, and reads its row.
func runLeg(root string, binOf map[string]string, name string, procs int) (row, error) {
	family, leg, _ := strings.Cut(name, "/")
	for _, r := range runs {
		if r.bench != family {
			continue
		}
		cmd := exec.Command(binOf[r.pkg], "-test.run", "^$", "-test.benchmem", "-test.benchtime", r.benchtime,
			"-test.bench", "^"+regexp.QuoteMeta(family)+"$/^"+regexp.QuoteMeta(leg)+"$")
		cmd.Dir = filepath.Join(root, r.pkg)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &out), os.Stderr
		if err := cmd.Run(); err != nil {
			return row{}, fmt.Errorf("%s in %s: %w", name, r.pkg, err)
		}
		for _, got := range parse(out.String(), procs) {
			if got.Name == name {
				return got, nil
			}
		}
		return row{}, fmt.Errorf("%s in %s printed no row", name, r.pkg)
	}
	return row{}, fmt.Errorf("%s: no benchmark family %s", name, family)
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

// pair is one A/B pair of a gate: the ns/op of its numerator and of its
// denominator leg.
type pair struct{ num, den float64 }

// summary is what a gate read: the median of its pairs' ratios, their
// interquartile range and how many pairs had both legs.
type summary struct {
	Gate   string  `json:"gate"`
	Median float64 `json:"ratio_median"`
	IQR    float64 `json:"ratio_iqr"`
	Pairs  int     `json:"pairs"`
	Limit  string  `json:"limit"`
	Pass   bool    `json:"pass"`
}

// evaluate checks every gate's median pair ratio against its limit and
// returns one report line per gate (plus the gate's reason when it fails).
// A pair missing either leg does not count; a gate with no whole pair
// fails.
func evaluate(results map[string][]pair, gates []gate) (report string, ok bool, sums []summary) {
	var b strings.Builder
	ok = true
	for _, g := range gates {
		var ratios []float64
		for _, p := range results[g.name] {
			if p.num > 0 && p.den > 0 {
				ratios = append(ratios, p.num/p.den)
			}
		}
		s := summary{Gate: g.name, Pairs: len(ratios), Limit: fmt.Sprintf("%s %.2f", g.op, g.limit)}
		if len(ratios) == 0 {
			fmt.Fprintf(&b, "FAIL %-20s missing row: no pair ran both %s and %s\n", g.name, g.num, g.den)
			ok = false
			sums = append(sums, s)
			continue
		}
		q1, med, q3 := quartiles(ratios)
		s.Median, s.IQR = med, q3-q1
		s.Pass = med >= g.limit
		if g.op == "<=" {
			s.Pass = med <= g.limit
		}
		verdict := "ok  "
		if !s.Pass {
			verdict = "FAIL"
			ok = false
		}
		fmt.Fprintf(&b, "%s %-20s %s / %s: median %.3f (IQR %.3f-%.3f, %d pairs) (limit %s)\n",
			verdict, g.name, g.num, g.den, med, q1, q3, len(ratios), s.Limit)
		if !s.Pass {
			fmt.Fprintf(&b, "     %s\n", g.why)
		}
		sums = append(sums, s)
	}
	return b.String(), ok, sums
}

// quartiles returns the first quartile, the median and the third quartile
// of xs, each the midpoint of the two middle values where there are two.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	mid := func(s []float64) float64 { return (s[(len(s)-1)/2] + s[len(s)/2]) / 2 }
	return mid(s[:(len(s)+1)/2]), mid(s), mid(s[len(s)/2:])
}

// render writes a JSON array: each leg's median run, in order of first
// appearance in gates, then each gate's summary, one per line.
func render(legRows map[string][]row, sums []summary) ([]byte, error) {
	var items []any
	seen := map[string]bool{}
	for _, g := range gates {
		for _, name := range []string{g.num, g.den} {
			rs := legRows[name]
			if seen[name] || len(rs) == 0 {
				continue
			}
			seen[name] = true
			rs = slices.SortedFunc(slices.Values(rs), func(a, b row) int { return cmp.Compare(a.NsPerOp, b.NsPerOp) })
			items = append(items, rs[(len(rs)-1)/2])
		}
	}
	for _, s := range sums {
		items = append(items, s)
	}
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, it := range items {
		line, err := json.Marshal(it)
		if err != nil {
			return nil, err
		}
		b.WriteString("  ")
		b.Write(line)
		if i < len(items)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes(), nil
}

package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"strings"
	"testing"
)

// legs is a run in which every gate passes with room to spare (ns/op).
var legs = map[string]float64{
	"BenchmarkFilterAggregate/scalar-reference":    40_000_000,
	"BenchmarkFilterAggregate/vectorized":          4_000_000,
	"BenchmarkFilterAggregate/vectorized-parallel": 3_000_000,
	"BenchmarkFilterAggregate/vectorized-obs":      4_000_400,
	"BenchmarkPrepareExec/unprepared":              6_600,
	"BenchmarkPrepareExec/prepared":                6_000,
	"BenchmarkWALInsert/in-memory":                 1_500,
	"BenchmarkWALInsert/wal":                       2_000,
	"BenchmarkWALInsert/wal-obs":                   2_400,
	"BenchmarkProcessingModel/batch-python":        6_000_000,
	"BenchmarkProcessingModel/native-go":           800_000,
	"BenchmarkCompress/planes":                     4_000_000,
	"BenchmarkCompress/plain-deflate":              22_000_000,
}

// canned prints legs the way `go test -bench -benchmem -count=3` does on a
// four-core runner, three packages one after the other: three repetitions
// per row of which the middle one is the fastest, rows with a custom
// metric, and the headers and trailers between them.
func canned(legs map[string]float64) string {
	var b strings.Builder
	emit := func(pkg string, names ...string) {
		fmt.Fprintf(&b, "goos: linux\ngoarch: amd64\npkg: %s\ncpu: canned\n", pkg)
		for _, n := range names {
			ns, ok := legs[n]
			if !ok {
				continue
			}
			for rep, slow := range []float64{1.31, 1, 1.07} {
				fmt.Fprintf(&b, "%s-4   \t%8d\t%12.1f ns/op\t%8d B/op\t%8d allocs/op\n", n, 100+rep, ns*slow, 4096+rep, 7+rep)
			}
		}
		fmt.Fprintf(&b, "PASS\nok  \t%s\t1.234s\n", pkg)
	}
	emit("repro",
		"BenchmarkProcessingModel/batch-python", "BenchmarkProcessingModel/native-go",
		"BenchmarkPrepareExec/unprepared", "BenchmarkPrepareExec/prepared",
		"BenchmarkWALInsert/in-memory", "BenchmarkWALInsert/wal", "BenchmarkWALInsert/wal-obs")
	b.WriteString("BenchmarkExtra/rows=10-4 \t 30\t 9163144 ns/op\t 183.3 ns/row\t 1024 B/op\t 3 allocs/op\n")
	emit("repro/internal/engine",
		"BenchmarkFilterAggregate/scalar-reference", "BenchmarkFilterAggregate/vectorized",
		"BenchmarkFilterAggregate/vectorized-parallel", "BenchmarkFilterAggregate/vectorized-obs")
	emit("repro/internal/transfer", "BenchmarkCompress/planes", "BenchmarkCompress/plain-deflate")
	return b.String()
}

// with returns legs with one row's ns/op replaced, or the row dropped when
// ns is 0.
func with(name string, ns float64) map[string]float64 {
	m := maps.Clone(legs)
	if ns == 0 {
		delete(m, name)
	} else {
		m[name] = ns
	}
	return m
}

func TestParseTakesTheFastestRepetitionOfExactlyNamedRows(t *testing.T) {
	rows := parse(canned(legs), 4)
	if len(rows) != len(legs)+1 {
		t.Fatalf("parsed %d rows, want %d: %+v", len(rows), len(legs)+1, rows)
	}
	for _, r := range rows {
		if r.Name == "BenchmarkExtra/rows=10" {
			if r.NsPerOp != 9163144 || r.BytesPerOp != 1024 || r.AllocsPerOp != 3 {
				t.Errorf("row with a custom metric misread: %+v", r)
			}
			continue
		}
		// the middle repetition: 101 iterations, 4097 B/op, 8 allocs/op
		if want, ok := legs[r.Name]; !ok || r.NsPerOp != want || r.Iterations != 101 || r.BytesPerOp != 4097 || r.AllocsPerOp != 8 {
			t.Errorf("%+v: want the fastest repetition (%v ns/op, 101 iterations) under the suffix-free name", r, want)
		}
	}
	// On one P the testing package appends no suffix, and a name that ends
	// in "-<digits>" keeps its ending.
	one := parse("BenchmarkX/top-4 \t 5\t 10 ns/op\t 0 B/op\t 0 allocs/op\n", 1)
	if len(one) != 1 || one[0].Name != "BenchmarkX/top-4" {
		t.Errorf("GOMAXPROCS=1: %+v", one)
	}
	data, err := render(rows)
	var back []map[string]any
	if err == nil {
		err = json.Unmarshal(data, &back)
	}
	if err != nil || len(back) != len(rows) {
		t.Fatalf("rendered rows do not read back: %v\n%s", err, data)
	}
	for _, key := range []string{"name", "iterations", "ns_per_op", "bytes_per_op", "allocs_per_op"} {
		if _, ok := back[0][key]; !ok {
			t.Errorf("rendered row lacks %q: %v", key, back[0])
		}
	}
}

// TestEachGateBites pins the eight thresholds and shows each one decides: a
// run in which one numerator sits just inside its limit passes, just past
// it fails on that gate alone, and without either of its rows the gate
// fails instead of matching a neighbour whose name it prefixes
// (vectorized / vectorized-obs, wal / wal-obs).
func TestEachGateBites(t *testing.T) {
	want := []struct {
		name, num, den, op string
		limit              float64
	}{
		{"vectorized-speedup", "BenchmarkFilterAggregate/scalar-reference", "BenchmarkFilterAggregate/vectorized", ">=", 5.0},
		{"morsel-parallel", "BenchmarkFilterAggregate/vectorized-parallel", "BenchmarkFilterAggregate/vectorized", "<=", 1.10},
		{"adhoc-vs-prepared", "BenchmarkPrepareExec/unprepared", "BenchmarkPrepareExec/prepared", "<=", 1.3},
		{"wal-append", "BenchmarkWALInsert/wal", "BenchmarkWALInsert/in-memory", "<=", 2.2},
		{"obs-aggregate", "BenchmarkFilterAggregate/vectorized-obs", "BenchmarkFilterAggregate/vectorized", "<=", 1.10},
		{"obs-wal-insert", "BenchmarkWALInsert/wal-obs", "BenchmarkWALInsert/wal", "<=", 1.35},
		{"python-vs-native", "BenchmarkProcessingModel/batch-python", "BenchmarkProcessingModel/native-go", "<=", 14.7},
		{"compress-planes", "BenchmarkCompress/planes", "BenchmarkCompress/plain-deflate", "<=", 0.4},
	}
	if len(gates) != len(want) {
		t.Fatalf("%d gates, want %d", len(gates), len(want))
	}
	if report, ok := evaluate(parse(canned(legs), 4), gates); !ok || strings.Count(report, "\n") != len(gates) {
		t.Fatalf("the passing run must pass with one line per gate:\n%s", report)
	}
	for i, w := range want {
		g := gates[i]
		if g.name != w.name || g.num != w.num || g.den != w.den || g.op != w.op || g.limit != w.limit || g.why == "" {
			t.Errorf("gate %d is %+v, want %+v with a reason", i, g, w)
			continue
		}
		inside, past := 0.999, 1.001
		if g.op == ">=" {
			inside, past = past, inside
		}
		edge := legs[g.den] * g.limit
		for _, tc := range []struct {
			what string
			legs map[string]float64
			pass bool
		}{
			{"numerator just inside the limit", with(g.num, edge*inside), true},
			{"numerator just past the limit", with(g.num, edge*past), false},
			{"numerator row missing", with(g.num, 0), false},
			{"denominator row missing", with(g.den, 0), false},
		} {
			report, ok := evaluate(parse(canned(tc.legs), 4), gates)
			if ok != tc.pass {
				t.Errorf("%s, %s: passed=%v, want %v\n%s", g.name, tc.what, ok, tc.pass, report)
			}
			if !tc.pass && !strings.Contains(report, "FAIL "+g.name) {
				t.Errorf("%s, %s: the report does not fail this gate by name\n%s", g.name, tc.what, report)
			}
			if strings.HasPrefix(tc.what, "numerator just past") && strings.Count(report, "FAIL") != 1 {
				t.Errorf("%s, %s: exactly this gate should fail\n%s", g.name, tc.what, report)
			}
		}
	}
}

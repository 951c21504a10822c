package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// legs is a run in which every gate passes with room to spare (ns/op).
var legs = map[string]float64{
	"BenchmarkFilterAggregate/scalar-reference":    40_000_000,
	"BenchmarkFilterAggregate/vectorized":          4_000_000,
	"BenchmarkFilterAggregate/vectorized-parallel": 3_000_000,
	"BenchmarkFilterAggregate/vectorized-obs":      4_000_400,
	"BenchmarkFilterAggregate/range":               6_000_000,
	"BenchmarkPrepareExec/unprepared":              6_600,
	"BenchmarkPrepareExec/prepared":                6_000,
	"BenchmarkWALInsert/in-memory":                 1_500,
	"BenchmarkWALInsert/wal":                       2_000,
	"BenchmarkWALInsert/wal-obs":                   2_400,
	"BenchmarkProcessingModel/batch-python":        6_000_000,
	"BenchmarkProcessingModel/native-go":           800_000,
	"BenchmarkCompress/planes":                     2_000_000,
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
		"BenchmarkFilterAggregate/vectorized-parallel", "BenchmarkFilterAggregate/vectorized-obs",
		"BenchmarkFilterAggregate/range")
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
	legRows := map[string][]row{}
	for _, r := range rows {
		legRows[r.Name] = []row{r}
	}
	data, err := render(legRows, nil)
	var back []map[string]any
	if err == nil {
		err = json.Unmarshal(data, &back)
	}
	if err != nil || len(back) != len(legs) {
		t.Fatalf("rendered rows do not read back: %v\n%s", err, data)
	}
	for _, key := range []string{"name", "iterations", "ns_per_op", "bytes_per_op", "allocs_per_op"} {
		if _, ok := back[0][key]; !ok {
			t.Errorf("rendered row lacks %q: %v", key, back[0])
		}
	}
}

// paired is a run of n pairs per gate in which every leg reads its value
// in legs, the gate's numerator scaled by scale[gate] when there is one.
func paired(n int, legs map[string]float64, scale map[string]float64) map[string][]pair {
	results := map[string][]pair{}
	for _, g := range gates {
		for i := 0; i < n; i++ {
			num := legs[g.num]
			if f, ok := scale[g.name]; ok {
				num *= f
			}
			results[g.name] = append(results[g.name], pair{num, legs[g.den]})
		}
	}
	return results
}

// TestEachGateBites pins the nine thresholds and shows each one decides: a
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
		{"compress-planes", "BenchmarkCompress/planes", "BenchmarkCompress/plain-deflate", "<=", 0.12},
		{"range-fold", "BenchmarkFilterAggregate/range", "BenchmarkFilterAggregate/vectorized", "<=", 1.96},
	}
	if len(gates) != len(want) {
		t.Fatalf("%d gates, want %d", len(gates), len(want))
	}
	if report, ok, _ := evaluate(paired(pairs, legs, nil), gates); !ok || strings.Count(report, "\n") != len(gates) {
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
		edge := g.limit * legs[g.den] / legs[g.num]
		for _, tc := range []struct {
			what    string
			results map[string][]pair
			pass    bool
		}{
			{"numerator just inside the limit", paired(pairs, legs, map[string]float64{g.name: edge * inside}), true},
			{"numerator just past the limit", paired(pairs, legs, map[string]float64{g.name: edge * past}), false},
			{"numerator row missing", paired(pairs, with(g.num, 0), nil), false},
			{"denominator row missing", paired(pairs, with(g.den, 0), nil), false},
		} {
			report, ok, _ := evaluate(tc.results, gates)
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

// TestGateReadsTheMedianPair: a gate holds the median of its pairs' ratios
// to its limit, so fewer than half the pairs past it (a load phase on one
// leg) pass and more than half fail; the summary carries the median, the
// IQR and the pair count, and a pair missing a leg does not count.
func TestGateReadsTheMedianPair(t *testing.T) {
	g := gates[2] // adhoc-vs-prepared, <= 1.3
	run := func(ratios ...float64) (bool, summary) {
		results := map[string][]pair{}
		for _, r := range ratios {
			results[g.name] = append(results[g.name], pair{r * 1000, 1000})
		}
		results[g.name] = append(results[g.name], pair{0, 1000}, pair{1000, 0})
		_, _, sums := evaluate(results, []gate{g})
		return sums[0].Pass, sums[0]
	}
	if ok, s := run(1.1, 1.9, 1.2, 2.5, 1.0, 1.6, 1.25); !ok || s.Median != 1.25 || s.Pairs != 7 {
		t.Errorf("3 of 7 pairs past the limit: %+v, want a pass on the median 1.25 over 7 pairs", s)
	}
	if ok, s := run(1.1, 1.9, 1.35, 2.5, 1.0, 1.6, 1.25); ok || s.Median != 1.35 {
		t.Errorf("4 of 7 pairs past the limit: %+v, want a failure on the median 1.35", s)
	}
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{3}, 3, 3, 3},
		{[]float64{4, 1, 3, 2}, 1.5, 2.5, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 2, 3, 4},
	} {
		if q1, med, q3 := quartiles(tc.xs); q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
	_, _, sums := evaluate(paired(pairs, legs, nil), gates)
	data, err := render(nil, sums)
	var back []map[string]any
	if err == nil {
		err = json.Unmarshal(data, &back)
	}
	if err != nil || len(back) != len(gates) {
		t.Fatalf("gate rows do not read back: %v\n%s", err, data)
	}
	for _, key := range []string{"gate", "ratio_median", "ratio_iqr", "pairs", "limit", "pass"} {
		if _, ok := back[0][key]; !ok {
			t.Errorf("gate row lacks %q: %v", key, back[0])
		}
	}
}

// TestScheduleAlternatesSeededPairs: every gate runs its pairs in order,
// one pair of each gate before the next pair of any, both legs of a pair
// side by side; each order, numerator first or denominator first, comes up
// for every gate, and a seed always draws the same schedule.
func TestScheduleAlternatesSeededPairs(t *testing.T) {
	steps := schedule(seed, pairs, len(gates))
	if len(steps) != pairs*len(gates) {
		t.Fatalf("%d steps, want %d", len(steps), pairs*len(gates))
	}
	swapped := make([]int, len(gates))
	for i, st := range steps {
		if st.pair != i/len(gates) || st.gate != i%len(gates) {
			t.Fatalf("step %d is gate %d pair %d, want gate %d pair %d", i, st.gate, st.pair, i%len(gates), i/len(gates))
		}
		legs := st.legs(gates[st.gate])
		if (legs[0] == gates[st.gate].den) != st.swapped || legs[0] == legs[1] {
			t.Fatalf("step %d runs %v for %+v", i, legs, st)
		}
		if st.swapped {
			swapped[st.gate]++
		}
	}
	for g, n := range swapped {
		if n == 0 || n == pairs {
			t.Errorf("gate %s runs its numerator first in %d of %d pairs", gates[g].name, pairs-n, pairs)
		}
	}
	if !slices.Equal(steps, schedule(seed, pairs, len(gates))) {
		t.Error("the same seed drew two schedules")
	}
	if slices.Equal(steps, schedule(seed+1, pairs, len(gates))) {
		t.Error("another seed drew the same schedule")
	}
}

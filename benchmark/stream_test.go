package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// streamBytes serialises the first blocks of every stream of a seed.
func streamBytes(seed uint64) []byte {
	var buf []byte
	for stream := 0; stream <= streamReader; stream++ {
		for k := 0; k < 4; k++ {
			buf = appendOps(buf, genBlock(seed, stream, k))
		}
	}
	return buf
}

// TestStreamDeterminism: -seed is the only input that shapes data, binds and
// operation order, so one seed gives byte-identical streams and data twice,
// and another seed gives different ones.
func TestStreamDeterminism(t *testing.T) {
	a, b := streamBytes(7), streamBytes(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced two different operation streams")
	}
	if bytes.Equal(a, streamBytes(8)) {
		t.Fatal("different seeds produced the same operation stream")
	}
	d1, d2, d3 := genDataset(7), genDataset(7), genDataset(8)
	if !equalInts(d1.numbers, d2.numbers) || !equalInts(d1.big, d2.big) || d1.dimPrefix[dimRows] != d2.dimPrefix[dimRows] {
		t.Fatal("the same seed produced two different datasets")
	}
	if equalInts(d1.numbers, d3.numbers) {
		t.Fatal("different seeds produced the same dataset")
	}
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCursorResumes: a stream cut by deadlines is the same stream.
func TestCursorResumes(t *testing.T) {
	whole := cursor{seed: 3, stream: phDev}
	var want []op
	whole.driveN(50, func(o op) { want = append(want, o) })
	cut := cursor{seed: 3, stream: phDev}
	var got []op
	for len(got) < 50 {
		n := 0
		cut.drive(func() bool { n++; return n == 7 || len(got) == 50 }, func(o op) { got = append(got, o) })
	}
	if !bytes.Equal(appendOps(nil, want), appendOps(nil, got)) {
		t.Fatal("a cursor driven in pieces yields a different stream")
	}
}

// benchmarkJSON mirrors the file the driver reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesSpec: every workload and metric the program prints
// is declared in BENCHMARK.json with the same unit, direction and bound, and
// every name is one the driver accepts.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program has %q: %q", i, bj.Workloads[i], w.Name, w.Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why of %d characters", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program prints %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(s metricSpec, gotName, gotUnit, gotBetter string, gotBound float64) {
		if s.Name != gotName || s.Unit != gotUnit || s.Better != gotBetter || s.Bound != gotBound {
			t.Errorf("metric %q: BENCHMARK.json has (%q, %q, %q, %v), the program has %+v", s.Name, gotName, gotUnit, gotBetter, gotBound, s)
		}
		if !name.MatchString(s.Name) || !unit.MatchString(s.Unit) || seen[s.Name] {
			t.Errorf("metric %q (%q): bad or repeated name, or bad unit", s.Name, s.Unit)
		}
		seen[s.Name] = true
	}
	for i, s := range endToEnd {
		e := bj.EndToEnd[i]
		check(s, e.Name, e.Unit, e.Better, e.Bound)
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	for i, s := range perLayer {
		e := bj.PerLayer[i]
		check(s, e.Name, e.Unit, e.Better, 0)
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	// Every metric a run computes must be declared: an undeclared one would
	// be dropped silently by withUnits.
	for _, lm := range latencyMetrics {
		if !seen[lm.name] {
			t.Errorf("latency metric %q is computed but not declared", lm.name)
		}
	}
}

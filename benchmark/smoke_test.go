package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestSmoke runs every workload untraced, and one traced pass, for about a
// second each: the benchmark keeps compiling, every oracle and the
// durability check keep passing, no layer replay fails, and every declared
// metric gets at least one sample (run fails otherwise). run returns only
// when its servers and goroutines have stopped, so nothing here waits on a
// sleep.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		res, err := run(runConfig{workload: w, seed: 1, seconds: smokeSeconds, setups: 1, workdir: dir})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkResult(t, w.Name, res, endToEnd)
		if len(res.Raw) != len(endToEnd) {
			t.Errorf("%s: %d raw values beside %d end-to-end metrics", w.Name, len(res.Raw), len(endToEnd))
		}
	}
	res, err := run(runConfig{workload: workloads[phDev], seed: 1, seconds: 3 * smokeSeconds, trace: true, setups: 1, workdir: dir})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "dev_cycle traced", res, perLayer)
	checkSpans(t, res)
}

// smokeSeconds gives every phase of a run at least three slices, enough for
// two developer rounds, so that every class is sampled.
const smokeSeconds = 0.75

func checkResult(t *testing.T, what string, res *result, specs []metricSpec) {
	t.Helper()
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: %d of %d operations failed", what, res.Failed, res.Attempted)
	}
	for _, s := range specs {
		m, ok := res.Metrics[s.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s is missing or not a number (%v)", what, s.Name, m.Value)
		}
	}
	if len(res.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics computed, %d declared", what, len(res.Metrics), len(specs))
	}
}

// checkSpans reads the trace file back and requires, for every sampled
// wire_point prepared statement, that its replayed children plus the
// unattributed residual account for the root span exactly, and that the
// reported wire.unattributed_us is the median of those residuals.
func checkSpans(t *testing.T, res *result) {
	t.Helper()
	data, err := os.ReadFile(res.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	tr := &tracer{spans: spans}
	self := tr.selfTimes("prepared")
	if len(self) == 0 {
		t.Fatal("the traced pass sampled no prepared statement")
	}
	roots := 0
	for i, r := range spans {
		if r.Parent != "" || r.Name != "prepared" {
			continue
		}
		var children int64
		for _, c := range spans[i+1:] {
			if c.Op != r.Op {
				break
			}
			if c.Parent == "prepared" {
				children += min(c.EndNs, r.EndNs) - min(c.StartNs, r.EndNs)
			}
		}
		if got := children + self[roots]; got != r.EndNs-r.StartNs {
			t.Fatalf("op %d: children %d + unattributed %d != root %d", r.Op, children, self[roots], r.EndNs-r.StartNs)
		}
		roots++
	}
	if got, want := res.Metrics["wire.unattributed_us"].Value, p50(self)/1e3; got != want {
		t.Errorf("wire.unattributed_us = %v, spans say %v", got, want)
	}
}

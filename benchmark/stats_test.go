package main

import (
	"testing"
	"time"
)

// TestToNominalKeepsMeasured: bringing samples to nominal speed never
// touches the measured ones, and covers exactly the samples added since the
// previous call, merged ones included.
func TestToNominalKeepsMeasured(t *testing.T) {
	var r, reader recorder
	r.add(clsInsert, 100*time.Nanosecond)
	r.toNominal(2)
	reader.add(clsRead, 10*time.Nanosecond)
	r.add(clsInsert, 300*time.Nanosecond)
	r.merge(&reader)
	r.toNominal(0.5)
	if got := r.lat[clsInsert]; len(got) != 2 || got[0] != 100 || got[1] != 300 {
		t.Errorf("measured insert samples changed: %v", got)
	}
	if got := r.nom[clsInsert]; len(got) != 2 || got[0] != 200 || got[1] != 150 {
		t.Errorf("nominal insert samples = %v, want [200 150]", got)
	}
	if got := r.nom[clsRead]; len(got) != 1 || got[0] != 5 {
		t.Errorf("nominal read samples = %v, want [5]", got)
	}
}

// TestMetricSetCountsSamples: no sample is a missing metric, not a zero;
// a percentile is thin until ten samples lie beyond it.
func TestMetricSetCountsSamples(t *testing.T) {
	ms := newMetricSet()
	ms.quantile("none", nil, 0.5, 1)
	ms.mean("none_mean", nil, 1)
	if _, ok := ms.m["none"]; ok || len(ms.missing) != 2 {
		t.Fatalf("empty samples gave a value (%v) or were not noted as missing (%v)", ms.m, ms.missing)
	}
	samples := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(n - i) // unsorted on purpose
		}
		return v
	}
	for _, c := range []struct {
		n    int
		q    float64
		thin bool
		want float64
	}{
		{20, 0.5, true, 11}, {21, 0.5, false, 11},
		{190, 0.95, true, 181}, {200, 0.95, false, 190},
	} {
		ms.quantile("m", samples(c.n), c.q, 1)
		if m := ms.m["m"]; m.Thin != c.thin || m.Samples != c.n || m.Value != c.want {
			t.Errorf("n=%d q=%v: got %+v, want value %v thin=%v", c.n, c.q, m, c.want, c.thin)
		}
	}
}

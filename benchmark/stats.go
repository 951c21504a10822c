package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"time"
)

// recorder collects what a run measures: per-class latencies in arrival
// order, attempts and failures. One goroutine owns a recorder; the ingest
// reader gets its own and merges it when the phase ends.
type recorder struct {
	lat       [numClasses][]int64 // nanoseconds, as measured
	nom       [numClasses][]int64 // the same samples at nominal speed (reference.go)
	attempted int
	failed    int
	failLog   int
}

func (r *recorder) add(class int, d time.Duration) {
	r.lat[class] = append(r.lat[class], int64(d))
}

// fail counts one failed operation (errored, shed, retried out, wrong
// answer, or a layer replay that returned an error) and logs the first few
// to stderr.
func (r *recorder) fail(what, format string, args ...any) {
	r.failed++
	if r.failLog < 5 {
		r.failLog++
		fmt.Fprintf(os.Stderr, "FAILED %s: %s\n", what, fmt.Sprintf(format, args...))
	}
}

// toNominal brings the samples measured since the previous call to nominal
// speed with factor f. The measured samples stay as they are.
func (r *recorder) toNominal(f float64) {
	for c := range r.lat {
		for _, d := range r.lat[c][len(r.nom[c]):] {
			r.nom[c] = append(r.nom[c], int64(float64(d)*f))
		}
	}
}

func (r *recorder) merge(o *recorder) {
	for c := range r.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
}

// measurement is one metric as a run reports it.
type measurement struct {
	Value   float64
	Samples int  // samples a statistic rests on; 0 for counts, ratios and differences
	Thin    bool // a percentile with fewer than ten samples beyond it
}

// metricSet collects a run's metrics by name. A statistic over no samples
// is not a number: its name goes to missing, and a run with a missing
// metric prints no result.
type metricSet struct {
	m       map[string]measurement
	missing []string
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]measurement{}} }

func (s *metricSet) set(name string, v float64) { s.m[name] = measurement{Value: v} }

func (s *metricSet) value(name string) float64 { return s.m[name].Value }

// quantile records the nearest-rank q-quantile of v, divided by per.
func (s *metricSet) quantile(name string, v []int64, q, per float64) {
	if len(v) == 0 {
		s.missing = append(s.missing, name)
		return
	}
	sorted := slices.Clone(v)
	slices.Sort(sorted)
	i := rank(len(v), q)
	s.m[name] = measurement{float64(sorted[i]) / per, len(v), len(v)-1-i < 10}
}

// mean records the mean of v, divided by per.
func (s *metricSet) mean(name string, v []int64, per float64) {
	if len(v) == 0 {
		s.missing = append(s.missing, name)
		return
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	s.m[name] = measurement{Value: sum / float64(len(v)) / per, Samples: len(v)}
}

func rank(n int, q float64) int { return int(q*float64(n-1) + 0.5) }

// p50 is the nearest-rank median of v; not a number when v is empty.
func p50(v []int64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return float64(s[rank(len(s), 0.5)])
}

func medianFloat(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Package obs is the serving stack's observability subsystem: a metrics
// registry (counters, gauges, histograms — atomic hot paths, optional
// label dimension) with Prometheus text-format exposition, lightweight
// per-query trace spans carried on the context flow, and a bounded
// query log backing the sys.query_log virtual table and the slow-query
// log. It is stdlib-only and dependency-free so every layer — wire,
// engine, vec, udfrt, wal, pool, the daemons — can hook into it without
// import cycles.
//
// Instruments are cheap enough for hot paths: a Counter.Add is one
// atomic add, a Histogram.Observe is two atomic adds plus a bucket
// scan over a small fixed bound slice. Everything that renders strings
// happens at scrape time, never at record time.
//
// Naming convention (enforced by review, documented in CONTRIBUTING):
// series are prefixed by subsystem (wire_, engine_, udf_, wal_, pool_),
// counters end in _total, durations are _seconds histograms, sizes are
// _bytes. One Registry per process; components register their
// instruments once via their EnableObs/RegisterObs hooks.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets is the default latency histogram layout: 100µs to 10s,
// roughly logarithmic — wide enough for a plan-cache hit and a
// cold Python UDF in the same histogram.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds registered instruments and renders them in Prometheus
// text exposition format. Registration is not hot-path; recording is.
type Registry struct {
	mu   sync.Mutex
	fams []*family
	seen map[string]bool
}

// family is one metric name: its metadata plus the series under it
// (exactly one for unlabeled instruments, one per label value for vecs).
type family struct {
	name, help, typ string
	render          func(w io.Writer)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: map[string]bool{}}
}

func (r *Registry) register(name, help, typ string, render func(io.Writer)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[name] {
		panic("obs: duplicate metric registration: " + name)
	}
	r.seen[name] = true
	r.fams = append(r.fams, &family{name: name, help: help, typ: typ, render: render})
}

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		f.render(w)
	}
}

// Handler returns an http.Handler serving the registry at /metrics
// content type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// formatFloat renders a sample value the way Prometheus expects:
// integers without an exponent, everything else in shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// ---- counter ----

// Counter is a monotonically increasing value. The zero value is usable
// but unregistered; obtain registered counters from Registry.Counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters never go down).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", func(w io.Writer) {
		fmt.Fprintf(w, "%s %d\n", name, c.Value())
	})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for subsystems that already keep their own atomic
// tallies (plan cache, vec worker stats).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, "counter", func(w io.Writer) {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(fn()))
	})
}

// CounterVec is a counter family with one label dimension. With returns
// the per-value counter; callers on hot paths should cache it.
type CounterVec struct {
	name, label string
	mu          sync.Mutex
	series      map[string]*Counter
	order       []string
}

// With returns the counter for one label value, creating it on first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.series[value]
	if !ok {
		c = &Counter{}
		v.series[value] = c
		v.order = append(v.order, value)
	}
	return c
}

// CounterVec registers a counter family keyed by one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{name: name, label: label, series: map[string]*Counter{}}
	r.register(name, help, "counter", func(w io.Writer) {
		v.mu.Lock()
		order := make([]string, len(v.order))
		copy(order, v.order)
		v.mu.Unlock()
		sort.Strings(order)
		for _, value := range order {
			fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", name, label, escapeLabel(value), v.With(value).Value())
		}
	})
	return v
}

// ---- gauge ----

// Gauge is an integer-valued instantaneous measurement.
type Gauge struct {
	v atomic.Int64
}

// Add adjusts the value by n (negative allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", func(w io.Writer) {
		fmt.Fprintf(w, "%s %d\n", name, g.Value())
	})
	return g
}

// GaugeFunc registers a gauge read from fn at scrape time. fn must not
// block on locks that a stalled query can hold indefinitely (e.g. the
// engine lock while a debuggee is paused): a scrape should never hang.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", func(w io.Writer) {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(fn()))
	})
}

// ---- histogram ----

// Histogram observes a distribution over fixed, cumulative buckets.
// Observe is two atomic adds plus a scan over the bound slice.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound, plus +Inf at the end
	sum    atomicFloat
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.add(v)
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram buckets must be strictly increasing")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

func (h *Histogram) render(w io.Writer, name, labels string) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labels, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, bracketed(labels), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, bracketed(labels), cum)
}

func bracketed(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + strings.TrimSuffix(labels, ",") + "}"
}

// Histogram registers and returns a histogram over the given bucket
// upper bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.register(name, help, "histogram", func(w io.Writer) {
		h.render(w, name, "")
	})
	return h
}

// HistogramVec is a histogram family with one label dimension.
type HistogramVec struct {
	name, label string
	buckets     []float64
	mu          sync.Mutex
	series      map[string]*Histogram
	order       []string
}

// With returns the histogram for one label value, creating it on first
// use; hot paths should cache the result.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.series[value]
	if !ok {
		h = newHistogram(v.buckets)
		v.series[value] = h
		v.order = append(v.order, value)
	}
	return h
}

// HistogramVec registers a histogram family keyed by one label.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	v := &HistogramVec{name: name, label: label, buckets: buckets, series: map[string]*Histogram{}}
	r.register(name, help, "histogram", func(w io.Writer) {
		v.mu.Lock()
		order := make([]string, len(v.order))
		copy(order, v.order)
		v.mu.Unlock()
		sort.Strings(order)
		for _, value := range order {
			labels := fmt.Sprintf("%s=\"%s\",", label, escapeLabel(value))
			v.With(value).render(w, v.name, labels)
		}
	})
	return v
}

// atomicFloat accumulates float64 via CAS on the bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

package obs

import (
	"errors"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_active", "active things")
	c.Add(3)
	c.Inc()
	g.Add(7)
	g.Add(-2)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP test_ops_total ops",
		"# TYPE test_ops_total counter",
		"test_ops_total 4",
		"# TYPE test_active gauge",
		"test_active 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_msgs_total", "messages by type", "type")
	v.With("query").Add(2)
	v.With("ping").Inc()
	v.With(`we"ird\`).Inc()

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, `test_msgs_total{type="query"} 2`) {
		t.Errorf("missing query series:\n%s", out)
	}
	if !strings.Contains(out, `test_msgs_total{type="ping"} 1`) {
		t.Errorf("missing ping series:\n%s", out)
	}
	if !strings.Contains(out, `test_msgs_total{type="we\"ird\\"} 1`) {
		t.Errorf("missing escaped series:\n%s", out)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	h.Observe(0.005) // bucket le=0.01
	h.Observe(0.05)  // le=0.1
	h.Observe(0.5)   // le=1
	h.Observe(5)     // +Inf

	if got := h.Sum(); got != 5.555 {
		t.Fatalf("Sum = %v, want 5.555", got)
	}

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 2`,
		`test_latency_seconds_bucket{le="1"} 3`,
		`test_latency_seconds_bucket{le="+Inf"} 4`,
		`test_latency_seconds_sum 5.555`,
		`test_latency_seconds_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("test_udf_seconds", "udf latency", "runtime", []float64{0.1, 1})
	v.With("python").Observe(0.05)
	v.With("python").Observe(2)
	v.With("js").Observe(0.5)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`test_udf_seconds_bucket{runtime="python",le="0.1"} 1`,
		`test_udf_seconds_bucket{runtime="python",le="+Inf"} 2`,
		`test_udf_seconds_count{runtime="python"} 2`,
		`test_udf_seconds_bucket{runtime="js",le="1"} 1`,
		`test_udf_seconds_count{runtime="js"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestFuncInstruments(t *testing.T) {
	r := NewRegistry()
	hits := 41.0
	r.CounterFunc("test_hits_total", "cache hits", func() float64 { return hits })
	r.GaugeFunc("test_segments", "segment count", func() float64 { return 3 })
	hits++

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, "test_hits_total 42") {
		t.Errorf("CounterFunc should read live value:\n%s", out)
	}
	if !strings.Contains(out, "test_segments 3") {
		t.Errorf("missing GaugeFunc sample:\n%s", out)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate metric name")
		}
	}()
	r.Counter("dup_total", "second")
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "x")
	h := r.Histogram("race_seconds", "x", []float64{0.5})
	v := r.CounterVec("race_vec_total", "x", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.25)
				v.With("a").Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "race_seconds_count 8000\n") {
		t.Errorf("histogram count is not 8000:\n%s", b.String())
	}
	if got := h.Sum(); got != 2000 {
		t.Errorf("histogram sum = %v, want 2000", got)
	}
	if v.With("a").Value() != 8000 {
		t.Errorf("vec counter = %d, want 8000", v.With("a").Value())
	}
}

func TestHandlerAndRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_ops_total", "ops").Add(9)
	h := r.Histogram("rt_lat_seconds", "lat", []float64{0.01, 0.1})
	h.Observe(0.05)
	r.CounterVec("rt_by_type_total", "by type", "type").With("q").Add(4)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	sc, err := ParseText(resp.Body)
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if got := sc.Value("rt_ops_total", nil); got != 9 {
		t.Errorf("rt_ops_total = %v, want 9", got)
	}
	if got := sc.Value("rt_by_type_total", map[string]string{"type": "q"}); got != 4 {
		t.Errorf("rt_by_type_total{type=q} = %v, want 4", got)
	}
	if sc.Types["rt_lat_seconds"] != "histogram" {
		t.Errorf("rt_lat_seconds type = %q, want histogram", sc.Types["rt_lat_seconds"])
	}
	buckets := sc.HistogramBuckets("rt_lat_seconds", nil)
	if len(buckets) != 3 {
		t.Fatalf("bucket count = %d, want 3 (incl +Inf)", len(buckets))
	}
	if buckets[0].Value != 0 || buckets[1].Value != 1 || buckets[2].Value != 1 {
		t.Errorf("cumulative buckets wrong: %+v", buckets)
	}
	if got := sc.Value("rt_lat_seconds_count", nil); got != 1 {
		t.Errorf("histogram _count = %v, want 1", got)
	}
}

func TestParseTextErrors(t *testing.T) {
	for bad, want := range map[string]string{
		"name_only\n":             `syntax error: metrics line 1: expected 'name value' in "name_only"`,
		"metric 1 2 3\n":          `syntax error: metrics line 1: expected 'name value' in "metric 1 2 3"`,
		"# TYPE m gauge\nm}{ 1\n": `syntax error: metrics line 2: unbalanced braces in "m}{ 1"`,
		"m{a=\"b\"}\n":            `syntax error: metrics line 1: malformed sample "m{a=\"b\"}"`,
		"m x\n":                   `syntax error: metrics line 1: bad value in "m x": strconv.ParseFloat: parsing "x": invalid syntax`,
		"m{x} 1\n":                `syntax error: metrics line 1: label pair missing '=' in "x"`,
		"metric{x=unquoted} 1\n":  `syntax error: metrics line 1: label value for x not quoted`,
		"metric{le=\"0.1} 3\n":    `syntax error: metrics line 1: unterminated label value for le`,
	} {
		_, err := ParseText(strings.NewReader(bad))
		if err == nil || err.Error() != want {
			t.Errorf("ParseText(%q) = %v, want %s", bad, err, want)
		}
	}
	_, err := ParseText(strings.NewReader("m x\n"))
	if !errors.Is(err, strconv.ErrSyntax) {
		t.Errorf("a bad value hides its strconv cause: %v", err)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "x", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.003)
	}
}

// Command benchmark is the repo's benchmark (BENCHMARK.json at the root
// declares it; README.md in this directory explains it).
//
// With -workload it is the driver's contract: one run of one workload,
// untraced (-trace 0, the end-to-end metrics) or traced (-trace 1, the
// per-layer metrics), ending in one JSON line on standard output. Without
// -workload it runs every workload both ways and prints one JSON document;
// -repeat N does that for N consecutive seeds and adds each end-to-end
// metric's run-to-run spread beside its declared bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

type runConfig struct {
	workload workloadSpec
	seed     uint64
	seconds  float64
	trace    bool
	setups   int    // how many times to set up; setup_s is their median
	workdir  string // every file the run writes lives under it
	traceOut string // spans file of a traced run; default <workdir>/trace-<workload>-<seed>.json
}

type result struct {
	Attempted int
	Failed    int
	Metrics   map[string]measurement
	Raw       map[string]measurement // untraced run: every end-to-end metric as measured, before nominal speed
	TraceFile string
}

// latencyMetrics maps each end-to-end latency to its class and statistic.
var latencyMetrics = []struct {
	name  string
	class int
	q     float64 // quantile; 0 for the mean
	per   float64 // nanoseconds per unit
}{
	{"prepared_p50_us", clsPrepared, 0.5, 1e3},
	{"prepared_p95_us", clsPrepared, 0.95, 1e3},
	{"adhoc_p50_us", clsAdhoc, 0.5, 1e3},
	{"py_agg_p50_ms", clsPyAgg, 0.5, 1e6},
	{"py_map_p50_ms", clsPyMap, 0.5, 1e6},
	{"native_scan_p50_ms", clsNativeScan, 0.5, 1e6},
	{"extract_p50_ms", clsExtract, 0.5, 1e6},
	{"cycle_devudf_p50_ms", clsCycleDevUDF, 0.5, 1e6},
	{"cycle_traditional_p50_ms", clsCycleTraditional, 0.5, 1e6},
	{"debug_session_p50_ms", clsDebug, 0.5, 1e6},
	{"insert_mean_us", clsInsert, 0, 1e3},
	{"insert_p95_us", clsInsert, 0.95, 1e3},
	{"read_p50_us", clsRead, 0.5, 1e3},
}

// endToEndMetrics computes the end-to-end metrics from one set of samples:
// lat is the recorder's nominal samples or its measured ones, and setups
// and focusWall are on the same footing.
func endToEndMetrics(lat *[numClasses][]int64, setups []float64, focusOps int, focusWall float64) *metricSet {
	ms := newMetricSet()
	ms.m["setup_s"] = measurement{Value: medianFloat(setups), Samples: len(setups)}
	ms.set("ops_per_s", float64(focusOps)/focusWall)
	for _, lm := range latencyMetrics {
		if lm.q == 0 {
			ms.mean(lm.name, lat[lm.class], lm.per)
		} else {
			ms.quantile(lm.name, lat[lm.class], lm.q, lm.per)
		}
	}
	return ms
}

// mainClass is the class whose p50 stands for a phase when the traced and
// untraced passes are compared (the reader on ingest_mixed: the insert's
// median sits between two modes).
var mainClass = [numPhases]int{clsPrepared, clsPyAgg, clsExtract, clsRead}

// setupsPerRun is how many times a run sets up; setup_s is their median.
const setupsPerRun = 3

// sliceSeconds is how long one phase runs before the next takes over.
// Phases alternate in short slices for the whole run, so every metric
// samples the whole run's weather and not one contiguous stretch of it: on
// a shared 2-vCPU box the CPU's speed moves by up to 2x over seconds, and
// the goroutine placement that decides a loopback round trip's latency is
// redrawn whenever the running phase changes.
const sliceSeconds = 0.05

// schedule lists the phase of every slice and the slice length. A cycle is
// five slices: two for the focus phase, one for each of the others. The
// traced pass runs a quarter of the untraced one: its replays cost as much
// again, and end-to-end numbers never come from it.
func schedule(cfg runConfig) ([]int, time.Duration) {
	total := cfg.seconds
	if cfg.trace {
		total /= 4
	}
	cycles := int(total / (5 * sliceSeconds))
	if cycles < 1 {
		cycles = 1
	}
	f := cfg.workload.Focus
	var rest []int
	for ph := 0; ph < numPhases; ph++ {
		if ph != f {
			rest = append(rest, ph)
		}
	}
	cycle := []int{f, rest[0], f, rest[1], rest[2]}
	var plan []int
	for i := 0; i < cycles; i++ {
		plan = append(plan, cycle...)
	}
	return plan, time.Duration(total / float64(len(plan)) * float64(time.Second))
}

// run executes one run of one workload: set up (several times, for a steady
// setup_s), run the four phases for their share of the seconds, close the
// books with the durability check, and compute the metrics.
func run(cfg runConfig) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	plan, sliceLen := schedule(cfg)
	focus := cfg.workload.Focus
	var c counters
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	defer ref.close()

	// The traced pass's yardstick: the same session on a fixture with
	// observability off and no replays, run slice by slice beside the traced
	// one so that both see the same weather.
	var plain *fixture
	var yardstick recorder
	if cfg.trace {
		if plain, err = setup(cfg.seed, false, ref, filepath.Join(dir, "untraced")); err != nil {
			return nil, err
		}
		defer plain.close()
	}

	var fx *fixture
	var setupRaw, setupNom []float64
	for i := 0; i < cfg.setups; i++ {
		if fx != nil {
			fx.close()
		}
		ref.take()
		t0 := time.Now()
		if fx, err = setup(cfg.seed, cfg.trace, ref, filepath.Join(dir, fmt.Sprintf("setup-%d", i))); err != nil {
			return nil, err
		}
		took := time.Since(t0).Seconds()
		setupRaw = append(setupRaw, took)
		setupNom = append(setupNom, took*ref.take())
	}
	defer fx.close()

	var rec recorder
	var tr *tracer
	if cfg.trace {
		tr = newTracer(cfg.workload.Name, &rec)
	}
	var focusRaw, focusNom float64 // seconds the focus phase ran, as measured and at nominal speed
	for _, ph := range plan {
		var ops int
		var wall time.Duration
		slice := func() { ops, wall = fx.phases[ph].run(sliceLen, &rec, tr) }
		if cfg.trace {
			plain.phases[ph].run(sliceLen, &yardstick, nil)
			ref.take()
			c.around(ph == focus, ph == phUDF, slice)
		} else {
			slice()
		}
		f := ref.take()
		rec.toNominal(f)
		if ph == focus {
			c.focusOps += ops
			focusRaw += wall.Seconds()
			focusNom += wall.Seconds() * f
		}
	}
	fx.ing.verify(&rec, dir)

	res := &result{}
	var ms *metricSet
	if cfg.trace {
		c.overhead = (p50(rec.lat[mainClass[focus]])/p50(yardstick.lat[mainClass[focus]]) - 1) * 100
		rec.attempted += yardstick.attempted
		rec.failed += yardstick.failed
		ms = layerMetrics(fx, tr, &rec, focus, &c, dir)
		ms.quantile("process.reference_stream_us", ref.streams, 0.5, 1e3)
		ms.quantile("process.reference_pipe_us", ref.pipes, 0.5, 1e3)
		if math.IsNaN(c.overhead) {
			ms.missing = append(ms.missing, "obs.trace_overhead_pct")
		}
		res.TraceFile = cfg.traceOut
		if res.TraceFile == "" {
			res.TraceFile = filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-%d.json", cfg.workload.Name, cfg.seed))
		}
		if err := tr.writeFile(res.TraceFile); err != nil {
			return nil, err
		}
		if focus == phWire && len(ms.missing) == 0 {
			printBudget(os.Stderr, ms, tr)
		}
	} else {
		ms = endToEndMetrics(&rec.nom, setupNom, c.focusOps, focusNom)
		res.Raw = endToEndMetrics(&rec.lat, setupRaw, c.focusOps, focusRaw).m
	}
	if ref.err != nil {
		return nil, fmt.Errorf("reference pipe: %w", ref.err)
	}
	if len(ms.missing) > 0 {
		return nil, fmt.Errorf("no sample for %v: a replay failed or the run was too short", ms.missing)
	}
	res.Attempted, res.Failed, res.Metrics = rec.attempted, rec.failed, ms.m
	return res, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits is the contract's metrics object: value and unit, nothing else.
func withUnits(specs []metricSpec, m map[string]measurement) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		out[s.Name] = metricValue{m[s.Name].Value, s.Unit}
	}
	return out
}

// metricDetail is a metric with what the contract's object has no room for.
type metricDetail struct {
	metricValue
	Raw     *float64 `json:"raw,omitempty"` // end-to-end: the value as measured, before nominal speed
	Samples int      `json:"samples,omitempty"`
	Thin    bool     `json:"thin,omitempty"` // a percentile with fewer than ten samples beyond it
}

func withDetail(specs []metricSpec, res *result) map[string]metricDetail {
	out := make(map[string]metricDetail, len(specs))
	for _, s := range specs {
		m := res.Metrics[s.Name]
		d := metricDetail{metricValue{m.Value, s.Unit}, nil, m.Samples, m.Thin}
		if raw, ok := res.Raw[s.Name]; ok {
			d.Raw = &raw.Value
		}
		out[s.Name] = d
	}
	return out
}

// environment is recorded with every document: numbers compare only
// between runs that agree on it.
func environment(commit string, seed uint64, seconds float64) map[string]any {
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit, "seed": seed, "seconds": seconds,
		"transport": "TCP loopback, client and server in one process", "loop": "closed",
	}
}

func main() {
	workload := flag.String("workload", "", "run only this workload and print the driver's one-line result")
	seed := flag.Uint64("seed", 1, "the only input that shapes data, binds and operation order")
	seconds := flag.Float64("seconds", 20, "measured seconds per run, split between the four phases")
	trace := flag.Int("trace", 0, "with -workload: 1 runs the traced pass and prints the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the WAL, recovery copies and trace files")
	traceOut := flag.String("trace-out", "", "where a traced run writes its spans (default: under -workdir)")
	repeat := flag.Int("repeat", 1, "without -workload: run this many sets, on consecutive seeds")
	commit := flag.String("commit", "unknown", "commit to record in the output")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-repeat n]")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, setups: setupsPerRun, workdir: *workdir, traceOut: *traceOut}

	if *workload != "" {
		os.Exit(contractRun(cfg, *workload, *commit))
	}
	os.Exit(fullRun(cfg, *repeat, *commit))
}

// contractRun is one run as the driver makes it. The last line of standard
// output is the result object.
func contractRun(cfg runConfig, name, commit string) int {
	for _, w := range workloads {
		if w.Name == name {
			cfg.workload = w
		}
	}
	if cfg.workload.Name == "" {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", name)
		return 2
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	env, _ := json.Marshal(environment(commit, cfg.seed, cfg.seconds))
	fmt.Fprintf(os.Stderr, "environment: %s\n", env)
	if res.TraceFile != "" {
		fmt.Fprintf(os.Stderr, "spans written to %s\n", res.TraceFile)
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	detail, _ := json.Marshal(withDetail(specs, res))
	fmt.Fprintf(os.Stderr, "detail: %s\n", detail)
	line, _ := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed,
		"metrics": withUnits(specs, res.Metrics),
	})
	fmt.Println(string(line))
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// fullRun is `go run . -seed 1`: every workload untraced then traced, one
// document. With repeat > 1 the document also holds, per workload and
// end-to-end metric, every set's value, their relative spread and the
// declared bound; a spread beyond the bound is flagged unresolved.
func fullRun(cfg runConfig, repeat int, commit string) int {
	type workloadDoc struct {
		OpsAttempted int                     `json:"ops_attempted"`
		OpsFailed    int                     `json:"ops_failed"`
		EndToEnd     map[string]metricDetail `json:"end_to_end"`
		PerLayer     map[string]metricDetail `json:"per_layer"`
		TraceFile    string                  `json:"trace_file"`
	}
	type setDoc struct {
		Seed      uint64                 `json:"seed"`
		Workloads map[string]workloadDoc `json:"workloads"`
	}
	var sets []setDoc
	values := map[string][]float64{} // "workload/metric" -> one value per set
	failed := 0
	for s := 0; s < repeat; s++ {
		set := setDoc{Seed: cfg.seed + uint64(s), Workloads: map[string]workloadDoc{}}
		for _, w := range workloads {
			c := cfg
			c.workload, c.seed, c.trace, c.traceOut = w, set.Seed, false, ""
			fmt.Fprintf(os.Stderr, "seed %d: %s\n", c.seed, w.Name)
			e2e, err := run(c)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			c.trace = true
			layers, err := run(c)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			failed += e2e.Failed + layers.Failed
			set.Workloads[w.Name] = workloadDoc{
				e2e.Attempted + layers.Attempted, e2e.Failed + layers.Failed,
				withDetail(endToEnd, e2e), withDetail(perLayer, layers), layers.TraceFile,
			}
			for _, spec := range endToEnd {
				key := w.Name + "/" + spec.Name
				values[key] = append(values[key], e2e.Metrics[spec.Name].Value)
			}
		}
		sets = append(sets, set)
	}
	doc := map[string]any{"environment": environment(commit, cfg.seed, cfg.seconds), "sets": sets}
	if repeat > 1 {
		type spreadRow struct {
			Workload   string    `json:"workload"`
			Metric     string    `json:"metric"`
			Values     []float64 `json:"values"`
			Spread     float64   `json:"spread"`
			Bound      float64   `json:"bound"`
			Unresolved bool      `json:"unresolved"`
		}
		var rows []spreadRow
		for _, w := range workloads {
			for _, spec := range endToEnd {
				v := values[w.Name+"/"+spec.Name]
				sp := spread(v)
				rows = append(rows, spreadRow{w.Name, spec.Name, v, sp, spec.Bound, sp > spec.Bound})
			}
		}
		doc["spread"] = rows
	}
	out, _ := json.MarshalIndent(doc, "", "  ")
	fmt.Println(string(out))
	if failed > 0 {
		return 1
	}
	return 0
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(v, n=4)
// gives — the driver's measure. Fewer than four values fall back to
// (max-min)/median.
func spread(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	med := medianFloat(s)
	if med == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / med
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / med
}

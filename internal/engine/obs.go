package engine

import (
	"strings"
	"time"

	"repro/internal/engine/vec"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/udfrt"
)

// dbMetrics holds the engine's registered instruments. The pointer on DB
// is nil until EnableObs runs; every hot-path hook checks that once and
// does zero extra work when observability is off.
type dbMetrics struct {
	rowsScanned  *obs.Counter
	rowsReturned *obs.Counter
	commitVetoes *obs.Counter

	udfCalls   *obs.CounterVec
	udfErrors  *obs.CounterVec
	udfRows    *obs.CounterVec
	udfSeconds *obs.HistogramVec
}

// EnableObs registers the engine's metrics on reg and turns on hot-path
// recording. Call once, before the DB starts serving queries: the
// metrics pointer is read without the database lock afterwards. Every
// registered read function uses atomic counters only — a scrape never
// takes the database lock, so a paused debuggee cannot hang /metrics.
func (db *DB) EnableObs(reg *obs.Registry) {
	m := &dbMetrics{
		rowsScanned:  reg.Counter("engine_rows_scanned_total", "Rows read from FROM sources by SELECT evaluation."),
		rowsReturned: reg.Counter("engine_rows_returned_total", "Rows in materialized SELECT results."),
		commitVetoes: reg.Counter("engine_commit_vetoes_total", "Committed mutations rolled back because the WAL append hook refused them."),
		udfCalls:     reg.CounterVec("udf_calls_total", "UDF runtime invocations (one per batch, morsel, or tuple call).", "runtime"),
		udfErrors:    reg.CounterVec("udf_errors_total", "UDF runtime invocations that returned an error.", "runtime"),
		udfRows:      reg.CounterVec("udf_batch_rows_total", "Input rows handed to UDF runtime invocations.", "runtime"),
		udfSeconds:   reg.HistogramVec("udf_call_seconds", "UDF runtime invocation latency.", "runtime", nil),
	}
	reg.CounterFunc("engine_plan_cache_hits_total", "Plan cache lookups served from a cached AST.",
		func() float64 { return float64(db.plans.hits.Load()) })
	reg.CounterFunc("engine_plan_cache_misses_total", "Plan cache lookups that had to lex and parse.",
		func() float64 { return float64(db.plans.misses.Load()) })
	reg.CounterFunc("engine_plan_cache_evictions_total", "Cached plans evicted by the LRU capacity bound.",
		func() float64 { return float64(db.plans.evictions.Load()) })
	reg.GaugeFunc("engine_plan_cache_entries", "Cached plans currently live.",
		func() float64 { return float64(db.plans.entries.Load()) })
	reg.CounterFunc("engine_morsels_total", "Morsels executed by the vectorized kernels.",
		func() float64 { return float64(vec.StatsSnapshot().Morsels) })
	reg.CounterFunc("engine_morsel_inline_runs_total", "Kernel dispatches that ran inline on the query goroutine.",
		func() float64 { return float64(vec.StatsSnapshot().InlineRuns) })
	reg.CounterFunc("engine_morsel_parallel_runs_total", "Kernel dispatches that fanned out to morsel workers.",
		func() float64 { return float64(vec.StatsSnapshot().ParallelRuns) })
	reg.CounterFunc("engine_morsel_worker_busy_seconds_total", "Wall time a parallel kernel run's caller and helper goroutines spent claiming morsels.",
		func() float64 { return float64(vec.StatsSnapshot().WorkerBusyNanos) / 1e9 })
	reg.CounterFunc("engine_queries_cancelled_total", "Statements aborted by an interrupt: deadline, client disconnect, or server stop.",
		func() float64 { return float64(db.queriesCancelled.Load()) })
	db.mu.Lock()
	db.metrics = m
	db.mu.Unlock()
}

// instrumentedCall wraps one UDF runtime invocation with the UDF trace
// span and the per-runtime call/error/row/latency metrics. When
// observability is off (no metrics, no active trace) it is a direct
// call with zero extra work — the tuple-at-a-time benchmark loop stays
// unmeasured. Safe from morsel workers: the frame's trace is fixed for
// the duration of the statement and all trace cells are atomic.
func (f *frame) instrumentedCall(def *storage.FuncDef, call udfrt.Callable,
	env *udfrt.Env, in *udfrt.Batch) (*udfrt.Batch, error) {
	m, tr := f.DB.metrics, f.Trace
	if m == nil && tr == nil {
		return call.Call(env, in)
	}
	t0 := time.Now()
	out, err := call.Call(env, in)
	d := time.Since(t0)
	tr.AddStage(obs.StageUDF, d)
	if m != nil {
		lang := strings.ToLower(def.Language)
		m.udfCalls.With(lang).Inc()
		m.udfRows.With(lang).Add(uint64(in.Rows))
		m.udfSeconds.With(lang).Observe(d.Seconds())
		if err != nil {
			m.udfErrors.With(lang).Inc()
		}
	}
	return out, err
}

// queryLogName is the virtual table exposing recent query spans.
const queryLogName = "sys.query_log"

// queryLogTable materializes sys.query_log from the DB's query log ring:
// one row per finished query, oldest first, with the per-stage span
// breakdown in milliseconds. With no query log configured (embedded use
// without a server) the table exists but is empty.
func (f *frame) queryLogTable(name string) (*storage.Table, bool) {
	if !strings.EqualFold(strings.TrimSpace(name), queryLogName) {
		return nil, false
	}
	t := storage.NewTable(queryLogName, storage.Schema{
		{Name: "seq", Type: storage.TInt},
		{Name: "started", Type: storage.TStr},
		{Name: "usr", Type: storage.TStr},
		{Name: "query", Type: storage.TStr},
		{Name: "rows", Type: storage.TInt},
		{Name: "cache_hit", Type: storage.TBool},
		{Name: "error", Type: storage.TStr},
		{Name: "total_ms", Type: storage.TFloat},
		{Name: "parse_ms", Type: storage.TFloat},
		{Name: "bind_ms", Type: storage.TFloat},
		{Name: "exec_ms", Type: storage.TFloat},
		{Name: "udf_ms", Type: storage.TFloat},
		{Name: "wal_ms", Type: storage.TFloat},
		{Name: "write_ms", Type: storage.TFloat},
	})
	for _, e := range f.DB.QueryLog.Snapshot() {
		_ = t.AppendRow([]any{
			e.Seq,
			e.Start.Format(time.RFC3339Nano),
			e.User,
			e.Query,
			e.Rows,
			e.CacheHit,
			e.Err,
			ms(e.Total),
			ms(e.Stages[obs.StageParse]),
			ms(e.Stages[obs.StageBind]),
			ms(e.Stages[obs.StageExec]),
			ms(e.Stages[obs.StageUDF]),
			ms(e.Stages[obs.StageWAL]),
			ms(e.Stages[obs.StageWrite]),
		})
	}
	return t, true
}

func ms(nanos int64) float64 { return float64(nanos) / 1e6 }

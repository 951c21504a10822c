package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/dump"
	"repro/internal/engine/vec"
	"repro/internal/obs"
	"repro/internal/pickle"
	"repro/internal/script"
	"repro/internal/storage"
	"repro/internal/transfer"
	"repro/internal/transform"
	"repro/internal/udfrt"
	"repro/internal/udfrt/gort"
	"repro/internal/udfrt/pyrt"
	"repro/internal/wal"
	"repro/monetlite"
)

// counters accumulate over the slices of a run.
type counters struct {
	focusOps int
	// Traced pass only: runtime.MemStats deltas over the focus slices, and
	// vec.Stats deltas over the udf_scan slices.
	mallocs, allocBytes, gcPauseNs uint64
	parallelRuns, inlineRuns       int64

	overhead float64 // traced vs untraced p50 of the focus phase's main class, percent
}

// around runs fn and adds what it did to the process- and vec-level
// counters: memory for a focus slice, kernel dispatches for a udf_scan one.
func (c *counters) around(focus, udf bool, fn func()) {
	var m0, m1 runtime.MemStats
	if focus {
		runtime.ReadMemStats(&m0)
	}
	v0 := vec.StatsSnapshot()
	fn()
	if udf {
		v1 := vec.StatsSnapshot()
		c.parallelRuns += v1.ParallelRuns - v0.ParallelRuns
		c.inlineRuns += v1.InlineRuns - v0.InlineRuns
	}
	if focus {
		runtime.ReadMemStats(&m1)
		c.mallocs += m1.Mallocs - m0.Mallocs
		c.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		c.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	}
}

// layerReps is how often a replay outside the traced pass runs: its median
// then has ten samples on either side.
const layerReps = 21

// layerRun collects the per-layer metrics and times the replays made after
// the traced pass. Each timed replay is one attempted operation; one that
// returns an error is a failed one and leaves its metric missing.
type layerRun struct {
	*metricSet
	rec *recorder
}

// time runs fn reps times and returns the median duration in nanoseconds.
func (l *layerRun) time(name string, reps int, fn func() error) (float64, bool) {
	l.rec.attempted++
	d := make([]int64, reps)
	for i := range d {
		t0 := time.Now()
		if err := fn(); err != nil {
			l.rec.fail("replay "+name, "%v", err)
			l.missing = append(l.missing, name)
			return 0, false
		}
		d[i] = int64(time.Since(t0))
	}
	return p50(d), true
}

// timed records the median duration of fn, in units of per nanoseconds.
func (l *layerRun) timed(name string, reps int, per float64, fn func() error) {
	if ns, ok := l.time(name, reps, fn); ok {
		l.m[name] = measurement{ns / per, reps, reps-1-rank(reps, 0.5) < 10}
	}
}

// rate records fn's throughput in MB/s; fn returns the bytes it handled.
func (l *layerRun) rate(name string, fn func() (int, error)) {
	var n int
	ns, ok := l.time(name, layerReps, func() (err error) { n, err = fn(); return })
	if ok {
		l.m[name] = measurement{float64(n) / 1e6 / (ns / 1e9), layerReps, false}
	}
}

// must counts a replay's set-up step that nothing times: it may still fail.
func (l *layerRun) must(what string, err error) bool {
	if err != nil {
		l.rec.attempted++
		l.rec.fail("replay "+what, "%v", err)
	}
	return err == nil
}

// layerMetrics computes every per-layer metric after the traced pass. A
// metric either reads the pass's spans and counters, or times calls into
// one layer's exported functions on the inputs the workloads used. Nothing
// here edits or instruments the program. Spans and replays are times as
// measured, not brought to nominal speed.
func layerMetrics(fx *fixture, tr *tracer, rec *recorder, focus int, c *counters, dir string) *metricSet {
	l := &layerRun{newMetricSet(), rec}
	d := fx.data
	span := func(name, span, parent string, per float64) { l.quantile(name, tr.durations(span, parent), 0.5, per) }

	// wire
	l.quantile("wire.prepared_p99_us", rec.lat[clsPrepared], 0.99, 1e3)
	l.quantile("wire.ping_rtt_p50_us", rec.lat[clsPing], 0.5, 1e3)
	l.quantile("wire.pull_p50_ms", rec.lat[clsPull], 0.5, 1e6)
	span("wire.client_encode_ns", "wire.client_encode", "", 1)
	span("wire.frame_rw_ns", "wire.frame_rw", "", 1)
	span("wire.result_encode_ns_per_row", "wire.result_encode", "pull", pullRows)
	span("wire.result_decode_ns_per_row", "wire.result_decode", "pull", pullRows)
	l.set("wire.bytes_per_op", fx.wire.bytesPerOp())
	l.timed("wire.dial_handshake_us", layerReps, 1e3, func() error {
		cli, err := monetlite.DialContext(ctx, fx.wire.params)
		if err != nil {
			return err
		}
		return cli.Close()
	})
	pool := monetlite.NewPool(fx.wire.params, 1)
	l.timed("wire.pool_checkout_ns", 200, 1, func() error {
		cli, err := pool.Get(ctx)
		if err != nil {
			return err
		}
		pool.Put(cli)
		return nil
	})
	pool.Close()
	var shed float64
	for _, p := range fx.phases {
		shed += float64(p.base().srv.QueriesShed())
	}
	l.set("wire.shed_total", shed)
	l.set("wire.retry_total", float64(fx.dev.full.Pool().StatsSnapshot().Retries+fx.dev.samp.Pool().StatsSnapshot().Retries))
	l.quantile("wire.unattributed_us", tr.selfTimes("prepared"), 0.5, 1e3)

	// sqlparse, engine
	span("sqlparse.parse_ns", "sqlparse.parse", "", 1)
	span("engine.prepared_exec_us", "engine.prepared_exec", "", 1e3)
	span("engine.adhoc_exec_us", "engine.adhoc_exec", "", 1e3)
	l.set("engine.bind_plan_us", l.value("engine.adhoc_exec_us")-l.value("sqlparse.parse_ns")/1e3-l.value("engine.prepared_exec_us"))
	pc := fx.wire.db.PlanCacheStatsSnapshot()
	l.set("engine.plan_cache_hit_share", ratio(float64(pc.Hits), float64(pc.Hits+pc.Misses)))
	entries := fx.phases[focus].base().db.QueryLog.Snapshot()
	for i, name := range obs.StageNames {
		// mean microseconds per statement of the focus phase, as the server saw it
		stage := make([]int64, len(entries))
		for j, e := range entries {
			stage[j] = int64(e.Stages[i])
		}
		l.mean("engine.stage_"+name+"_us", stage, 1e3)
	}
	span("engine.native_scan_ms", "engine.native_scan", "", 1e6)
	us := scrape(fx.udf.reg)
	l.set("engine.rows_scanned_per_row_returned", ratio(us.Value("engine_rows_scanned_total", nil), us.Value("engine_rows_returned_total", nil)))

	// vec kernels on big, the native scan's input
	big := intColumn("i", d.big)
	var sel []int32
	if lit, err := storage.BindValue(int64(bigDomain / 2)); l.must("vec bind", err) {
		l.timed("vec.select_ns_per_row", layerReps, bigRows, func() error {
			var handled bool
			if sel, handled = vec.SelectCompareConst(vec.Pol{}, vec.CmpLt, big, lit); !handled {
				return fmt.Errorf("SelectCompareConst declined an integer column")
			}
			return nil
		})
		l.timed("vec.sumcount_ns_per_row", layerReps, float64(len(sel)), func() error {
			if _, _, _, ok := vec.SumCount(vec.Pol{}, big, sel); !ok {
				return fmt.Errorf("SumCount declined an integer column")
			}
			return nil
		})
	}
	l.set("vec.morsel_parallel_share", ratio(float64(c.parallelRuns), float64(c.parallelRuns+c.inlineRuns)))

	// script, pyrt, gort
	if def, err := fx.udf.db.Catalog().Function(udfName); l.must("catalog", err) {
		src := transform.WrapFunction(def.Name, def.Params.Names(), def.Body)
		l.timed("script.parse_us", layerReps, 1e3, func() error { _, err := script.Parse(def.Name, src); return err })
		l.timed("pyrt.compile_us", layerReps, 1e3, func() error { _, err := pyrt.New().Compile(def); return err })
	}
	span("pyrt.convert_in_ns_per_row", "pyrt.convert_in", "py_map", numbersSRows)
	span("pyrt.convert_out_ns_per_row", "pyrt.convert_out", "", numbersSRows)
	span("script.interp_agg_ns_per_row", "script.interp_agg", "", numbersRows)
	span("script.interp_map_ns_per_row", "script.interp_map", "", numbersSRows)
	arg := pyrt.ColumnToValue(intColumn("i", d.numbers), true)
	agg := fx.udf.agg
	var ms0, ms1 runtime.MemStats
	steps0 := agg.in.Steps()
	runtime.ReadMemStats(&ms0)
	_, err := agg.call(arg)
	runtime.ReadMemStats(&ms1)
	if l.must("interp call", err) {
		l.set("script.steps_per_row", float64(agg.in.Steps()-steps0)/numbersRows)
		l.set("script.allocs_per_row", float64(ms1.Mallocs-ms0.Mallocs)/numbersRows)
	}
	agg.in.Trace = func(*script.Interp, script.TraceEvent) error { return nil }
	l.timed("script.interp_hooked_ns_per_row", layerReps, numbersRows, func() error { _, err := agg.call(arg); return err })
	agg.in.Trace = nil
	if gdef, err := fx.udf.db.Catalog().Function("square_go"); l.must("catalog", err) {
		if call, err := gort.New().Compile(gdef); l.must("gort compile", err) {
			batch := udfrt.NewBatch([]*storage.Column{big}, []bool{true})
			l.timed("gort.call_ns_per_row", layerReps, bigRows, func() error { _, err := call.Call(&udfrt.Env{}, batch); return err })
		}
	}

	// debug
	l.quantile("debug.step_p50_us", fx.dev.stepLat, 0.5, 1e3)
	l.quantile("debug.session_start_ms", fx.dev.startLat, 0.5, 1e6)
	if steps, err := fx.dev.remoteSteps(); l.must("remote debug session", err) {
		l.quantile("debug.remote_step_p50_us", steps, 0.5, 1e3)
	}

	// transfer, pickle, storage on the extract's payload
	params := script.NewDict()
	params.SetStr("column", arg)
	var raw, comp, enc []byte
	l.rate("pickle.dumps_mb_per_s", func() (n int, err error) { raw, err = pickle.Dumps(params); return len(raw), err })
	l.rate("pickle.loads_mb_per_s", func() (int, error) { _, err := pickle.Loads(raw); return len(raw), err })
	l.rate("transfer.compress_mb_per_s", func() (n int, err error) { comp, err = transfer.Compress(raw); return len(raw), err })
	l.rate("transfer.decompress_mb_per_s", func() (int, error) { _, err := transfer.Decompress(comp); return len(raw), err })
	l.rate("transfer.encrypt_mb_per_s", func() (n int, err error) {
		enc, err = transfer.Encrypt(dbPassword, int64(fx.seed), comp)
		return len(comp), err
	})
	l.rate("transfer.decrypt_mb_per_s", func() (int, error) { _, err := transfer.Decrypt(dbPassword, enc); return len(comp), err })
	l.set("transfer.compress_ratio", ratio(float64(len(raw)), float64(len(comp))))
	tbl := fx.dev.pullTable
	var tenc []byte
	l.rate("storage.encode_mb_per_s", func() (int, error) { tenc = storage.EncodeTable(nil, tbl); return len(tenc), nil })
	l.rate("storage.decode_mb_per_s", func() (int, error) {
		_, err := storage.DecodeTable(storage.NewByteReader(tenc))
		return len(tenc), err
	})
	span("transform.rewrite_us", "transform.rewrite", "", 1e3)

	// devudf
	span("devudf.extract_server_ms", "devudf.extract_server", "", 1e6)
	span("devudf.extract_client_ms", "devudf.extract_client", "", 1e6)
	l.set("devudf.extract_payload_bytes", float64(fx.dev.payloadBytes))
	full := fx.dev.full
	l.timed("devudf.run_local_full_ms", layerReps, 1e6, func() error { _, err := full.RunLocal(ctx, udfName); return err })
	l.timed("devudf.export_ms", layerReps, 1e6, func() error { return full.ExportUDFs(ctx, udfName) })
	l.timed("devudf.import_ms", layerReps, 1e6, func() error { _, err := full.ImportUDFs(ctx, udfName); return err })

	// insert path with and without persistence, then the WAL's own costs
	l.embeddedInsert("engine.insert_exec_ns", "", "")
	l.embeddedInsert("wal.insert_exec_ns", "wal.sync_us", filepath.Join(dir, "layer-wal"))
	l.set("wal.append_ns", l.value("wal.insert_exec_ns")-l.value("engine.insert_exec_ns"))
	ing := fx.ing
	l.quantile("wal.insert_p50_us", rec.lat[clsInsert], 0.5, 1e3)
	l.quantile("wal.insert_p99_us", rec.lat[clsInsert], 0.99, 1e3)
	is := scrape(ing.reg)
	l.set("wal.fsync_count", is.Value("wal_fsync_seconds_count", nil))
	l.set("wal.checkpoint_count", is.Value("wal_checkpoints_total", nil))
	userBytes := float64(ing.ackRows-ing.setupRows) * 24
	l.set("wal.bytes_per_user_byte", ratio(is.Value("wal_append_bytes_total", nil)-ing.setupWALBytes, userBytes))
	live := float64(ing.ackRows)*24 + dimRows*16
	l.set("wal.disk_bytes_per_live_byte", ratio(float64(dirSize(ing.wal.Dir())), live))
	l.timed("wal.checkpoint_ms", 1, 1e6, ing.wal.Checkpoint)
	l.quantile("wal.recover_ms", ing.recoverLat, 0.5, 1e6)
	var snap bytes.Buffer
	l.rate("dump.encode_mb_per_s", func() (int, error) { snap.Reset(); return int(live), dump.Dump(ing.db, &snap) })
	l.rate("dump.restore_mb_per_s", func() (int, error) {
		return int(live), dump.Restore(monetlite.NewDB(), bytes.NewReader(snap.Bytes()))
	})

	// process, obs
	l.set("process.allocs_per_op", ratio(float64(c.mallocs), float64(c.focusOps)))
	l.set("process.alloc_bytes_per_op", ratio(float64(c.allocBytes), float64(c.focusOps)))
	l.set("process.gc_pause_ms", float64(c.gcPauseNs)/1e6)
	l.set("process.peak_rss_mb", peakRSSMB())
	l.set("obs.trace_overhead_pct", c.overhead)
	return l.metricSet
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func scrape(reg *obs.Registry) *obs.Scrape {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	s, err := obs.ParseText(&buf)
	if err != nil {
		return &obs.Scrape{}
	}
	return s
}

// embeddedInsert times the ingest statement on a private embedded database,
// in memory when dir is empty and through a WAL in dir otherwise, as
// nanoseconds per INSERT; for the durable case it also records the median
// explicit fsync as syncName.
func (l *layerRun) embeddedInsert(name, syncName, dir string) {
	db := monetlite.NewDB()
	var m *wal.Manager
	if dir != "" {
		var err error
		// No automatic checkpoints: this isolates the per-statement append.
		if m, err = wal.Open(dir, db, wal.Options{SnapshotBytes: -1}); !l.must("wal.Open", err) {
			l.missing = append(l.missing, name, syncName)
			return
		}
		defer m.Close()
	}
	conn := monetlite.Connect(db, dbUser, dbPassword)
	_, err := conn.Exec(createEventsSQL)
	var stmt *monetlite.Stmt
	if err == nil {
		stmt, err = conn.Prepare(insertSQL)
	}
	if !l.must("embedded insert set-up", err) {
		l.missing = append(l.missing, name)
		return
	}
	const n = 4000
	id := int64(0)
	insert := func() error {
		_, err := stmt.Exec(id, id%1000, float64(id))
		id++
		return err
	}
	l.timed(name, layerReps, n, func() error {
		for i := 0; i < n; i++ {
			if err := insert(); err != nil {
				return err
			}
		}
		return nil
	})
	if m != nil {
		l.timed(syncName, layerReps, 1e3, func() error {
			if err := insert(); err != nil {
				return err
			}
			return m.Sync()
		})
	}
}

// peakRSSMB reads the process's high-water resident set from the kernel,
// falling back to the Go runtime's own total where /proc is absent.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

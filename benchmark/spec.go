package main

// The benchmark's vocabulary: phases, operation classes, workloads and
// metrics. BENCHMARK.json at the repo root repeats the workload and metric
// tables; stream_test.go fails when the two drift apart.

// A phase is one of the four traffic shapes of ISSUE 12. Every run executes
// all four, each against its own server, because the driver's contract wants
// every end-to-end metric on every workload; a workload is the full session
// with twice the time on its focus phase (see schedule in main.go).
const (
	phWire = iota
	phUDF
	phDev
	phIngest
	numPhases
)

// Operation classes. Each end-to-end latency metric is the percentile of
// one class.
const (
	clsPrepared = iota
	clsAdhoc
	clsPing
	clsPyAgg
	clsPyMap
	clsNativeScan
	clsExtract
	clsCycleDevUDF
	clsCycleTraditional
	clsPull
	clsDebug
	clsInsert
	clsInsertBatch
	clsRead
	numClasses
)

var classNames = [numClasses]string{
	"prepared", "adhoc", "ping", "py_agg", "py_map", "native_scan",
	"extract_full", "cycle_devudf", "cycle_traditional", "pull", "debug_session",
	"insert", "insert_batch", "read",
}

type workloadSpec struct {
	Name  string
	Focus int
	Why   string
}

var workloads = []workloadSpec{
	{"wire_point", phWire, "tiny prepared/ad-hoc statements and pings on one connection: cost is client encode, socket, frames, queue, parse and bind, so the unattributed wire time shows here"},
	{"udf_scan", phUDF, "PYTHON aggregate and map UDFs over 50k/20k rows plus a 1M-row native GO scan: over 95% interpreter and kernels, wire is noise, and a PYTHON gain that taxes the native path shows"},
	{"dev_cycle", phDev, "the paper's developer loop: full extract (compress+encrypt), edit+run locally on a sample, traditional CREATE OR REPLACE cycle, bulk client pull and a stepping debug session"},
	{"ingest_mixed", phIngest, "one writer doing WAL-backed single-row and batch INSERTs beside one reader on a static table in the same DB: WAL append, group fsync, checkpoints and db.mu hand-off"},
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the 15 metrics a user of the system feels. ops_per_s is
// the focus phase's throughput; each latency is a statistic of one operation
// class, measured in whichever phase runs that class, at nominal speed
// (reference.go). A bound is three times the widest ten-seed spread the
// metric showed on any workload in three sweeps, rounded up to a twentieth and
// capped at the contract's 0.25: README.md, "Steadiness", has the spreads.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.20},
	{"prepared_p50_us", "us", lower, 0.25},
	{"prepared_p95_us", "us", lower, 0.20},
	{"adhoc_p50_us", "us", lower, 0.20},
	{"py_agg_p50_ms", "ms", lower, 0.25},
	{"py_map_p50_ms", "ms", lower, 0.25},
	{"native_scan_p50_ms", "ms", lower, 0.25},
	{"extract_p50_ms", "ms", lower, 0.25},
	{"cycle_devudf_p50_ms", "ms", lower, 0.20},
	{"cycle_traditional_p50_ms", "ms", lower, 0.25},
	{"debug_session_p50_ms", "ms", lower, 0.25},
	{"insert_mean_us", "us", lower, 0.25},
	{"insert_p95_us", "us", lower, 0.25},
	{"read_p50_us", "us", lower, 0.20},
}

// perLayer lists the traced-pass metrics, named after the repo's modules.
var perLayer = []metricSpec{
	{"wire.prepared_p99_us", "us", lower, 0},
	{"wire.ping_rtt_p50_us", "us", lower, 0},
	{"wire.pull_p50_ms", "ms", lower, 0},
	{"wire.client_encode_ns", "ns", lower, 0},
	{"wire.frame_rw_ns", "ns", lower, 0},
	{"wire.result_encode_ns_per_row", "ns/row", lower, 0},
	{"wire.result_decode_ns_per_row", "ns/row", lower, 0},
	{"wire.bytes_per_op", "B", lower, 0},
	{"wire.dial_handshake_us", "us", lower, 0},
	{"wire.pool_checkout_ns", "ns", lower, 0},
	{"wire.shed_total", "count", lower, 0},
	{"wire.retry_total", "count", lower, 0},
	{"wire.unattributed_us", "us", lower, 0},
	{"sqlparse.parse_ns", "ns", lower, 0},
	{"engine.prepared_exec_us", "us", lower, 0},
	{"engine.adhoc_exec_us", "us", lower, 0},
	{"engine.bind_plan_us", "us", lower, 0},
	{"engine.plan_cache_hit_share", "ratio", higher, 0},
	{"engine.stage_parse_us", "us", lower, 0},
	{"engine.stage_bind_us", "us", lower, 0},
	{"engine.stage_exec_us", "us", lower, 0},
	{"engine.stage_udf_us", "us", lower, 0},
	{"engine.stage_wal_us", "us", lower, 0},
	{"engine.stage_write_us", "us", lower, 0},
	{"engine.native_scan_ms", "ms", lower, 0},
	{"engine.rows_scanned_per_row_returned", "ratio", lower, 0},
	{"vec.select_ns_per_row", "ns/row", lower, 0},
	{"vec.sumcount_ns_per_row", "ns/row", lower, 0},
	{"vec.morsel_parallel_share", "ratio", higher, 0},
	{"script.parse_us", "us", lower, 0},
	{"pyrt.compile_us", "us", lower, 0},
	{"pyrt.convert_in_ns_per_row", "ns/row", lower, 0},
	{"pyrt.convert_out_ns_per_row", "ns/row", lower, 0},
	{"script.interp_agg_ns_per_row", "ns/row", lower, 0},
	{"script.interp_map_ns_per_row", "ns/row", lower, 0},
	{"script.steps_per_row", "count", lower, 0},
	{"script.allocs_per_row", "count", lower, 0},
	{"script.interp_hooked_ns_per_row", "ns/row", lower, 0},
	{"gort.call_ns_per_row", "ns/row", lower, 0},
	{"debug.step_p50_us", "us", lower, 0},
	{"debug.session_start_ms", "ms", lower, 0},
	{"debug.remote_step_p50_us", "us", lower, 0},
	{"transfer.compress_mb_per_s", "MB/s", higher, 0},
	{"transfer.decompress_mb_per_s", "MB/s", higher, 0},
	{"transfer.encrypt_mb_per_s", "MB/s", higher, 0},
	{"transfer.decrypt_mb_per_s", "MB/s", higher, 0},
	{"transfer.compress_ratio", "ratio", higher, 0},
	{"pickle.dumps_mb_per_s", "MB/s", higher, 0},
	{"pickle.loads_mb_per_s", "MB/s", higher, 0},
	{"storage.encode_mb_per_s", "MB/s", higher, 0},
	{"storage.decode_mb_per_s", "MB/s", higher, 0},
	{"transform.rewrite_us", "us", lower, 0},
	{"devudf.extract_server_ms", "ms", lower, 0},
	{"devudf.extract_client_ms", "ms", lower, 0},
	{"devudf.extract_payload_bytes", "B", lower, 0},
	{"devudf.run_local_full_ms", "ms", lower, 0},
	{"devudf.import_ms", "ms", lower, 0},
	{"devudf.export_ms", "ms", lower, 0},
	{"engine.insert_exec_ns", "ns", lower, 0},
	{"wal.insert_exec_ns", "ns", lower, 0},
	{"wal.append_ns", "ns", lower, 0},
	{"wal.insert_p50_us", "us", lower, 0},
	{"wal.insert_p99_us", "us", lower, 0},
	{"wal.sync_us", "us", lower, 0},
	{"wal.fsync_count", "count", lower, 0},
	{"wal.checkpoint_ms", "ms", lower, 0},
	{"wal.checkpoint_count", "count", lower, 0},
	{"wal.bytes_per_user_byte", "ratio", lower, 0},
	{"wal.disk_bytes_per_live_byte", "ratio", lower, 0},
	{"wal.recover_ms", "ms", lower, 0},
	{"dump.encode_mb_per_s", "MB/s", higher, 0},
	{"dump.restore_mb_per_s", "MB/s", higher, 0},
	{"process.allocs_per_op", "count", lower, 0},
	{"process.alloc_bytes_per_op", "B", lower, 0},
	{"process.gc_pause_ms", "ms", lower, 0},
	{"process.peak_rss_mb", "MB", lower, 0},
	{"process.reference_stream_us", "us", lower, 0},
	{"process.reference_pipe_us", "us", lower, 0},
	{"obs.trace_overhead_pct", "%", lower, 0},
}

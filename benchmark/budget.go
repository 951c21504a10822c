package main

import (
	"fmt"
	"io"
)

// printBudget renders, as a markdown table, where one wire_point prepared
// statement's time went in the traced pass: the ROADMAP's twelve layers, the
// residual as its own row, and the statement itself. A layer gets a number
// from a replay's span or from the server's own trace stage; socket and
// queue wait cannot be told apart from outside and are what the residual
// holds. The replayed rows and the residual sum to the root span.
func printBudget(w io.Writer, ms *metricSet, tr *tracer) {
	span := func(name string) float64 { return p50(tr.durations(name, "prepared")) / 1e3 }
	kernels := ms.value("engine.stage_exec_us") - ms.value("engine.stage_udf_us") - ms.value("engine.stage_wal_us")
	rows := []struct {
		layer  string
		us     float64
		source string
	}{
		{"client encode", span("wire.client_encode"), "replay: EncodeExecStmt"},
		{"socket", -1, "not separable from outside; in unattributed"},
		{"server frame read", span("wire.frame_rw"), "replay: WriteFrame+ReadFrame of request and reply over a buffer (all four frame operations)"},
		{"queue wait", -1, "not separable from outside; in unattributed"},
		{"parse", ms.value("engine.stage_parse_us"), "server trace stage, mean over the phase's statements (ad-hoc ones parse)"},
		{"bind / plan cache", ms.value("engine.stage_bind_us"), "server trace stage"},
		{"vec kernels", kernels, "server trace stages: exec − udf − wal"},
		{"UDF runtime", ms.value("engine.stage_udf_us"), "server trace stage"},
		{"WAL append", ms.value("engine.stage_wal_us"), "server trace stage"},
		{"result encode", span("wire.result_encode"), "replay: EncodeResult"},
		{"write", ms.value("engine.stage_write_us"), "server trace stage (includes the socket write call)"},
		{"client decode", span("wire.result_decode"), "replay: DecodeResult"},
		{"engine, embedded (bind + kernels)", span("engine.prepared_exec"), "replay: Stmt.Query with the same binds"},
		{"**unattributed**", ms.value("wire.unattributed_us"), "root − replays: socket, goroutine hand-offs, scheduler"},
		{"**prepared statement**", p50(tr.durations("prepared", "")) / 1e3, "root span, traced pass p50"},
	}
	fmt.Fprintf(w, "\n| layer | µs | source |\n|---|---|---|\n")
	for _, r := range rows {
		us := "—"
		if r.us >= 0 {
			us = fmt.Sprintf("%.2f", r.us)
		}
		fmt.Fprintf(w, "| %s | %s | %s |\n", r.layer, us, r.source)
	}
	fmt.Fprintln(w)
}

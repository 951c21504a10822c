package wire

import (
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
)

// serverMetrics holds the wire server's registered instruments; nil on
// the Server means observability is off and every hook is a no-op.
type serverMetrics struct {
	connsOpened   *obs.Counter
	connsActive   *obs.Gauge
	msgs          *obs.CounterVec
	bytesIn       *obs.Counter
	bytesOut      *obs.Counter
	queueDepth    *obs.Gauge
	querySeconds  *obs.Histogram
	debugSessions *obs.Gauge
	stmtRejects   *obs.Counter
}

// EnableObs registers the server's metrics on reg and turns on per-query
// tracing. Call before Listen: the metrics pointer is read without
// synchronization by the serving goroutines.
func (s *Server) EnableObs(reg *obs.Registry) {
	m := &serverMetrics{
		connsOpened:   reg.Counter("wire_connections_opened_total", "Client connections accepted and authenticated."),
		connsActive:   reg.Gauge("wire_connections_active", "Client connections currently being served."),
		msgs:          reg.CounterVec("wire_messages_total", "Client frames received, by message type.", "type"),
		bytesIn:       reg.Counter("wire_bytes_read_total", "Bytes read from client sockets."),
		bytesOut:      reg.Counter("wire_bytes_written_total", "Bytes written to client sockets."),
		queueDepth:    reg.Gauge("wire_query_queue_depth", "Requests pipelined behind executing statements, across all connections."),
		querySeconds:  reg.Histogram("wire_query_seconds", "Wall time from the start of a query (or prepared execution) to its response being written.", nil),
		debugSessions: reg.Gauge("wire_debug_sessions_active", "Remote debug runs currently executing on a connection."),
		stmtRejects:   reg.Counter("wire_stmt_rejections_total", "MsgPrepare requests refused because the per-connection statement table was full."),
	}
	reg.GaugeFunc("wire_open_statements", "Server-side prepared statements currently live across all connections.",
		func() float64 { return float64(s.OpenStatements()) })
	reg.CounterFunc("wire_queries_shed_total", "Pipelined requests refused by admission control (queue bound or rate limit) and answered with a retryable overload error.",
		func() float64 { return float64(s.QueriesShed()) })
	reg.CounterFunc("wire_conns_rejected_total", "Connections refused during the handshake by the MaxConns cap.",
		func() float64 { return float64(s.ConnsRejected()) })
	s.metrics = m
}

// msgTypeName labels a client frame type for wire_messages_total.
func msgTypeName(typ byte) string {
	switch typ {
	case MsgAuth:
		return "auth"
	case MsgQuery:
		return "query"
	case MsgClose:
		return "close"
	case MsgPing:
		return "ping"
	case MsgDebug:
		return "debug"
	case MsgPrepare:
		return "prepare"
	case MsgExecStmt:
		return "exec_stmt"
	case MsgCloseStmt:
		return "close_stmt"
	default:
		return fmt.Sprintf("type_%d", typ)
	}
}

// countMsg counts one received client frame. Nil-safe.
func (m *serverMetrics) countMsg(typ byte) {
	if m == nil {
		return
	}
	m.msgs.With(msgTypeName(typ)).Inc()
}

// countingConn counts raw socket bytes both directions, including the
// handshake and frame headers.
type countingConn struct {
	net.Conn
	in, out *obs.Counter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(uint64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(uint64(n))
	return n, err
}

// runStatement executes one statement — MsgQuery text or a prepared
// MsgExecStmt, behind exec — and answers it. With metrics, the query log
// or the slow-query line on, it carries a trace through the engine
// (parse/bind/exec/udf/wal spans), times the response write as the write
// span, and feeds the latency histogram, the query log ring and the
// slow-query log; with all of them off the trace is nil and every hook
// below is a no-op.
//
// Accounting comes after the write because the write span is part of it,
// so a client can hold a reply the server has not yet accounted for. The
// contract is: a statement's accounting is visible to the next statement on
// the same connection (the connection runs its statements one after
// another, and this function returns before the next one starts), and to
// other observers — another connection, a /metrics scrape, the log sink —
// eventually. An observer that needs it now issues a statement on the same
// connection and waits for that reply.
func (sc *serverConn) runStatement(sql string, exec func(engine.ExecOpts) (*engine.Result, error)) {
	srv := sc.srv
	var tr *obs.Trace
	if srv.metrics != nil || srv.DB.QueryLog != nil || srv.SlowQueryMs > 0 {
		tr = obs.AcquireTrace(sql, sc.sess.User)
		defer obs.ReleaseTrace(tr)
	}
	res, err := exec(sc.execOpts(tr))
	// On a failed write the client is gone; write errors are swallowed so
	// draining never blocks (subsequent writes fail fast).
	if err != nil {
		sc.replyErr(err)
	} else {
		wt := tr.StartStage(obs.StageWrite)
		_ = sc.writeResult(res)
		wt.Done()
	}
	if tr == nil {
		return
	}
	if err != nil {
		tr.Err = core.Message(err)
	} else if res.Table != nil {
		tr.Rows = int64(res.Table.NumRows())
	}
	total := time.Since(tr.Start)
	if m := srv.metrics; m != nil {
		m.querySeconds.Observe(total.Seconds())
	}
	srv.DB.QueryLog.Record(tr, total.Nanoseconds())
	if srv.SlowQueryMs > 0 && total >= time.Duration(srv.SlowQueryMs)*time.Millisecond {
		srv.logf("%s", slowQueryLine(tr, total))
	}
}

// slowQueryLine renders one structured (logfmt) slow-query record with
// the per-stage span breakdown.
func slowQueryLine(tr *obs.Trace, total time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "slow query: user=%s total_ms=%.3f", tr.User, float64(total)/1e6)
	for i := 0; i < obs.NumStages; i++ {
		fmt.Fprintf(&b, " %s_ms=%.3f", obs.StageNames[i], float64(tr.Stage(i))/1e6)
	}
	fmt.Fprintf(&b, " rows=%d cache_hit=%t", tr.Rows, tr.CacheHit)
	if tr.Err != "" {
		fmt.Fprintf(&b, " error=%q", tr.Err)
	}
	fmt.Fprintf(&b, " query=%q", tr.Query)
	return b.String()
}

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
		querySeconds:  reg.Histogram("wire_query_seconds", "Wall time from dequeue of a query (or prepared execution) to its response being written.", nil),
		debugSessions: reg.Gauge("wire_debug_sessions_active", "Remote debug runs currently launched."),
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
	//wireswitch:ignore maps message types to metric labels; not a dispatch path
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

// runQuery executes one MsgQuery with the full observability envelope:
// a trace carried through the engine (parse/exec/udf/wal spans), the
// response write timed as the write span, the latency histogram, the
// query log ring, and the slow-query log line. With everything off it
// degrades to the plain execute-and-respond path.
func (sc *serverConn) runQuery(fr frame) {
	srv := sc.srv
	intr := sc.execIntr()
	if srv.metrics == nil && srv.DB.QueryLog == nil && srv.SlowQueryMs <= 0 {
		res, err := sc.sess.ExecInterruptible(intr, nil, string(fr.payload))
		if err != nil {
			_ = sc.w.writeFrame(MsgErr, EncodeError(core.KindOf(err), errString(err)))
			return
		}
		_ = sc.writeResult(res)
		return
	}
	tr := obs.AcquireTrace(string(fr.payload), sc.sess.User)
	res, err := sc.sess.ExecInterruptible(intr, tr, tr.Query)
	sc.respondTraced(tr, res, err)
}

// runExecStmt is runQuery for a prepared execution that already resolved
// its statement and bind arguments.
func (sc *serverConn) runExecStmt(stmt *engine.Stmt, args []any) {
	srv := sc.srv
	intr := sc.execIntr()
	if srv.metrics == nil && srv.DB.QueryLog == nil && srv.SlowQueryMs <= 0 {
		res, err := stmt.ExecInterruptible(intr, nil, args...)
		if err != nil {
			_ = sc.w.writeFrame(MsgErr, EncodeError(core.KindOf(err), errString(err)))
			return
		}
		_ = sc.writeResult(res)
		return
	}
	tr := obs.AcquireTrace(stmt.SQL(), sc.sess.User)
	res, err := stmt.ExecInterruptible(intr, tr, args...)
	sc.respondTraced(tr, res, err)
}

// respondTraced writes the response (timing it as the write span),
// finalizes the trace, feeds the histogram, query log, and slow-query
// log, and releases the trace back to its pool.
//
// Accounting comes after the write because the write span is part of it,
// so a client can hold a reply the server has not yet accounted for. The
// contract is: a statement's accounting is visible to the next statement on
// the same connection (the connection's worker runs statements one after
// another, and this function returns before the next one starts), and to
// other observers — another connection, a /metrics scrape, the log sink —
// eventually. An observer that needs it now issues a statement on the same
// connection and waits for that reply.
func (sc *serverConn) respondTraced(tr *obs.Trace, res *engine.Result, err error) {
	defer obs.ReleaseTrace(tr)
	if err != nil {
		tr.Err = errString(err)
		_ = sc.w.writeFrame(MsgErr, EncodeError(core.KindOf(err), errString(err)))
	} else {
		if res.Table != nil {
			tr.Rows = int64(res.Table.NumRows())
		}
		wt := tr.StartStage(obs.StageWrite)
		_ = sc.writeResult(res)
		wt.Done()
	}
	total := time.Since(tr.Start)
	srv := sc.srv
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

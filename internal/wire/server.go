package wire

import (
	"bufio"
	"errors"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/storage"
)

// maxStmtsPerConn bounds a connection's prepared-statement table: MsgPrepare
// beyond the bound is rejected until the client closes statements.
const maxStmtsPerConn = 64

// defaultMaxQueueDepth bounds a connection's pipelined request queue when
// Server.MaxQueueDepth is zero.
const defaultMaxQueueDepth = 256

// Server serves one database over TCP to wire clients. NewServer fills in
// the single-account case; a literal with Database, Users and DB set serves
// just as well.
type Server struct {
	// Database is the database name clients must present (Fig. 2's
	// "database" connection parameter).
	Database string
	// Users maps user name to password.
	Users map[string]string
	// DB is the embedded engine instance.
	DB *engine.DB
	// Logf, when set, receives connection-level log lines.
	Logf func(format string, args ...any)
	// StreamThreshold is the encoded result size (bytes) above which a
	// result travels the chunked streaming path instead of one MsgResult.
	// Zero applies the 1 MiB default; negative streams everything.
	StreamThreshold int
	// ChunkBytes is the target encoded size of one streamed chunk; zero
	// applies DefaultChunkBytes.
	ChunkBytes int
	// SlowQueryMs, when positive, logs (via Logf) one structured line with
	// the per-stage span breakdown for every query whose wall time meets
	// the threshold.
	SlowQueryMs int
	// MaxConns caps concurrently served connections. Over-limit
	// connections are rejected during the handshake with a retryable
	// overload error; the listener keeps serving existing sessions.
	// Zero means unlimited.
	MaxConns int
	// MaxQueueDepth bounds the per-connection pipelined request queue.
	// Requests beyond the bound are shed: answered in FIFO position with
	// a retryable overload error instead of executing, never silently
	// dropped. Zero applies the 256 default; negative means unbounded.
	MaxQueueDepth int
	// RateLimit, when positive, admits at most this many
	// statement-executing requests per second per session (token bucket,
	// burst RateBurst); excess requests are shed with a retryable
	// overload error.
	RateLimit float64
	// RateBurst is the token-bucket burst for RateLimit; values below 1
	// (including zero) allow a burst of 1.
	RateBurst int
	// QueryTimeout, when positive, bounds each statement's execution wall
	// clock, measured from dequeue. An overrunning statement aborts with
	// a typed cancelled error at the engine's next checkpoint.
	QueryTimeout time.Duration
	// MaxResultBytes, when positive, refuses to ship results whose
	// encoding exceeds it, answering with a typed resource error.
	MaxResultBytes int
	// DrainTimeout, when positive, bounds how long a graceful drain waits
	// for in-flight statements: past the deadline their interrupts fire
	// and they abort with a cancelled error. Zero waits indefinitely.
	DrainTimeout time.Duration

	// metrics is set by EnableObs before Listen; nil disables recording.
	metrics *serverMetrics

	ln     net.Listener
	mu     sync.Mutex
	closed bool
	drain  chan struct{}
	wg     sync.WaitGroup

	// stmtCount tracks live server-side prepared statements across all
	// connections — the observable the leak tests (and operators) watch.
	stmtCount atomic.Int64
	// connCount tracks served connections for the MaxConns admission
	// check (maintained only when MaxConns > 0).
	connCount atomic.Int64
	// queriesShed / connsRejected count load-shedding decisions; exposed
	// as wire_queries_shed_total / wire_conns_rejected_total.
	queriesShed   atomic.Uint64
	connsRejected atomic.Uint64
}

// QueriesShed reports how many pipelined requests were refused by
// admission control (queue bound or rate limit) and answered with a
// retryable overload error.
func (s *Server) QueriesShed() uint64 { return s.queriesShed.Load() }

// ConnsRejected reports how many connections were refused at the
// handshake by the MaxConns cap.
func (s *Server) ConnsRejected() uint64 { return s.connsRejected.Load() }

// OpenStatements reports how many prepared statements are currently live
// across all connections. After every client has disconnected it must be
// zero: each connection's statement table is torn down with the session.
func (s *Server) OpenStatements() int64 { return s.stmtCount.Load() }

// NewServer creates a server for db with a single user account.
func NewServer(database, user, password string, db *engine.DB) *Server {
	return &Server{
		Database: database,
		Users:    map[string]string{user: password},
		DB:       db,
		drain:    make(chan struct{}),
	}
}

// Listen binds addr ("host:port"; ":0" picks a free port) and starts
// accepting connections in the background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", core.Wrapf(core.KindIO, err, "listen %s: %v", addr, err)
	}
	return s.ServeListener(ln), nil
}

// ServeListener starts accepting connections from a caller-provided
// listener — the seam the fault-injection tests use to interpose a chaos
// listener — and returns its address. Close still tears it down.
func (s *Server) ServeListener(ln net.Listener) string {
	s.mu.Lock()
	if s.drain == nil {
		s.drain = make(chan struct{}) // a Server literal, not NewServer's
	}
	s.mu.Unlock()
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String()
}

// Close stops accepting, asks every connection to drain — in-flight and
// already-pipelined requests finish and their responses are delivered —
// and waits for them to wind down.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed && s.drain != nil {
		close(s.drain)
	}
	s.closed = true
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			log.Printf("wire: accept: %v", err)
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// frame is one client request read off the socket.
type frame struct {
	typ     byte
	payload []byte
}

// serverConn is the per-connection serving state: the authenticated engine
// session, the serialized frame writer, the prepared-statement table, and
// the latest remote debug run (if any; touched only by the frame loop).
type serverConn struct {
	srv        *Server
	w          *connWriter
	sess       *engine.Conn
	connDone   chan struct{}
	closeOnce  sync.Once
	dr         *debugRun
	queries    *queryQueue
	workerDone chan struct{}

	// gone closes when the client can no longer receive responses (the
	// reader saw a non-MsgClose error) or a drain passed its DrainTimeout
	// — the interrupt signal that aborts this connection's in-flight
	// statements. It is deliberately distinct from connDone, which also
	// closes on clean MsgClose/drain where pipelined statements must
	// still complete and be answered.
	gone     chan struct{}
	goneOnce sync.Once

	// limiter, when non-nil, is the per-session admission rate limiter.
	// Touched only by the frame loop.
	limiter *tokenBucket

	// stmts is the per-connection prepared-statement table. It is touched
	// only by the query worker goroutine (prepare/exec/close ride the same
	// FIFO as queries, so responses stay ordered) and by shutdown, which
	// runs strictly after the worker exits.
	stmts    map[uint32]*engine.Stmt
	stmtNext uint32
}

// markGone signals that the client is dead (or abandoned): in-flight and
// queued statements on this connection abort at their next checkpoint.
func (sc *serverConn) markGone() {
	sc.goneOnce.Do(func() { close(sc.gone) })
}

// execOpts is the per-statement value handed to the engine: the
// connection's client-gone signal plus the server's query timeout, and
// the statement's trace (nil when observability is off). Built at dequeue
// so the deadline covers execution, not the time spent queued.
func (sc *serverConn) execOpts(tr *obs.Trace) engine.ExecOpts {
	o := engine.ExecOpts{Interrupt: engine.Interrupt{Done: sc.gone}, Trace: tr}
	if qt := sc.srv.QueryTimeout; qt > 0 {
		o.Interrupt.Deadline = time.Now().Add(qt)
	}
	return o
}

// tokenBucket is the per-session statement-admission rate limiter.
// Touched only by the connection's frame loop, so it needs no lock.
type tokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	return &tokenBucket{rate: rate, burst: b, tokens: b}
}

func (tb *tokenBucket) allow(now time.Time) bool {
	if !tb.last.IsZero() {
		tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
	tb.last = now
	if tb.tokens < 1 {
		return false
	}
	tb.tokens--
	return true
}

// qitem is one queryQueue entry: a real request, a debug launch, or a run
// of shed (admission-refused) requests that the worker answers with
// retryable overload errors. Coalescing consecutive sheds into one counter
// keeps the queue's memory bounded no matter how fast a client floods it,
// while each shed response still goes out in its FIFO position.
type qitem struct {
	fr   frame
	dr   *debugRun // non-nil: a debug launch, run instead of fr
	shed int       // > 0: this entry stands for that many shed requests
}

// queryQueue is the FIFO of pending statement-executing requests
// (MsgQuery, MsgPrepare, MsgExecStmt, MsgCloseStmt, a debug launch) feeding
// the connection's query worker. push never blocks — requests beyond the
// admission bound are recorded as shed markers instead — which matters
// because a paused debuggee holds the worker and the engine lock, and the
// resume command that releases them arrives on the same frame loop.
type queryQueue struct {
	mu      sync.Mutex
	items   []qitem
	pending int // admitted (non-shed) requests currently queued
	closed  bool
	wake    chan struct{}
	// depth, when non-nil, mirrors the admitted-request count into the
	// wire_query_queue_depth gauge (shared across connections).
	depth *obs.Gauge
}

func newQueryQueue() *queryQueue {
	return &queryQueue{wake: make(chan struct{}, 1)}
}

// push admits a request unless the queue already holds limit admitted
// requests (limit <= 0 means unbounded), reporting whether it was
// admitted. Refused requests become shed markers via shedLocked.
func (q *queryQueue) push(it qitem, limit int) bool {
	q.mu.Lock()
	admitted := limit <= 0 || q.pending < limit
	if admitted {
		q.items = append(q.items, it)
		q.pending++
	} else {
		q.shedLocked()
	}
	q.mu.Unlock()
	if admitted && q.depth != nil {
		q.depth.Add(1)
	}
	q.wakeUp()
	return admitted
}

// shed records one refused request (e.g. over the rate limit) in FIFO
// position.
func (q *queryQueue) shed() {
	q.mu.Lock()
	q.shedLocked()
	q.mu.Unlock()
	q.wakeUp()
}

func (q *queryQueue) shedLocked() {
	if n := len(q.items); n > 0 && q.items[n-1].shed > 0 {
		q.items[n-1].shed++
	} else {
		q.items = append(q.items, qitem{shed: 1})
	}
}

func (q *queryQueue) wakeUp() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// pop blocks for the next entry — one with shed > 0 is one refused request
// to be answered with an overload error; ok is false once the queue is
// closed and drained.
func (q *queryQueue) pop() (it qitem, ok bool) {
	for {
		q.mu.Lock()
		if len(q.items) > 0 {
			if head := &q.items[0]; head.shed > 0 {
				head.shed--
				if head.shed == 0 {
					q.items = q.items[1:]
				}
				q.mu.Unlock()
				return qitem{shed: 1}, true
			}
			it = q.items[0]
			q.items = q.items[1:]
			q.pending--
			q.mu.Unlock()
			if q.depth != nil {
				q.depth.Add(-1)
			}
			return it, true
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return qitem{}, false
		}
		<-q.wake
	}
}

// close marks the queue finished; pending items still drain. Idempotent.
func (q *queryQueue) close() {
	q.mu.Lock()
	wasClosed := q.closed
	q.closed = true
	q.mu.Unlock()
	if !wasClosed {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
}

// shutdown kills any active debuggee (closing connDone) and flushes the
// query worker so every accepted query gets its response before the
// connection says goodbye, then tears down the prepared-statement table.
// Safe to call more than once, never concurrently: the frame loop calls it
// when the session ends there, serveConn only after the frame loop returned.
func (sc *serverConn) shutdown() {
	sc.closeOnce.Do(func() { close(sc.connDone) })
	sc.queries.close()
	<-sc.workerDone
	if sc.stmts != nil {
		sc.srv.stmtCount.Add(-int64(len(sc.stmts)))
		sc.stmts = nil
	}
}

// queryWorker executes queued requests — queries, the prepared-statement
// verbs and debug launches — in FIFO order, writing each response through
// the shared connWriter. Running them off the frame loop keeps debug control
// (and ping/close) responsive while a statement — including a debug query
// paused at a breakpoint, whose debuggee runs right here — holds the engine
// lock.
func (sc *serverConn) queryWorker() {
	defer close(sc.workerDone)
	for {
		it, ok := sc.queries.pop()
		if !ok {
			return
		}
		if it.shed > 0 {
			sc.srv.queriesShed.Add(1)
			_ = sc.w.writeFrame(MsgErr, EncodeError(core.KindOverload,
				"server overloaded: request shed before execution; safe to retry"))
			continue
		}
		if it.dr != nil {
			sc.runDebug(it.dr)
			continue
		}
		// Only the types handleFrame admits are ever queued.
		switch fr := it.fr; fr.typ {
		case MsgQuery:
			sql := string(fr.payload)
			sc.runStatement(sql, func(o engine.ExecOpts) (*engine.Result, error) {
				return sc.sess.ExecWith(o, sql)
			})
		case MsgPrepare:
			sc.handlePrepare(fr.payload)
		case MsgExecStmt:
			sc.handleExecStmt(fr.payload)
		case MsgCloseStmt:
			sc.handleCloseStmt(fr.payload)
		}
	}
}

// handlePrepare compiles the SQL into the connection's statement table and
// answers with the assigned id plus the bind-parameter count.
func (sc *serverConn) handlePrepare(payload []byte) {
	if len(sc.stmts) >= maxStmtsPerConn {
		if m := sc.srv.metrics; m != nil {
			m.stmtRejects.Inc()
		}
		_ = sc.w.writeFrame(MsgErr, EncodeError(core.KindConstraint,
			"prepared-statement table is full; close statements first"))
		return
	}
	stmt, err := sc.sess.Prepare(string(payload))
	if err != nil {
		_ = sc.w.writeFrame(MsgErr, EncodeError(core.KindOf(err), errString(err)))
		return
	}
	if sc.stmts == nil {
		sc.stmts = map[uint32]*engine.Stmt{}
	}
	sc.stmtNext++
	id := sc.stmtNext
	sc.stmts[id] = stmt
	sc.srv.stmtCount.Add(1)
	_ = sc.w.writeFrame(MsgPrepareOK, EncodePrepareOK(id, stmt.NumParams()))
}

// handleExecStmt executes a prepared statement with one set of bind
// arguments, responding exactly like a query (one-shot result or chunked
// stream).
func (sc *serverConn) handleExecStmt(payload []byte) {
	id, cols, err := DecodeExecStmt(payload)
	if err != nil {
		_ = sc.w.writeFrame(MsgErr, EncodeError(core.KindOf(err), errString(err)))
		return
	}
	stmt, ok := sc.stmts[id]
	if !ok {
		_ = sc.w.writeFrame(MsgErr, EncodeError(core.KindName,
			"unknown prepared-statement id"))
		return
	}
	sc.runStatement(stmt.SQL(), func(o engine.ExecOpts) (*engine.Result, error) {
		return stmt.ExecBound(o, cols)
	})
}

// handleCloseStmt discards a prepared statement and acks.
func (sc *serverConn) handleCloseStmt(payload []byte) {
	id, err := DecodeCloseStmt(payload)
	if err != nil {
		_ = sc.w.writeFrame(MsgErr, EncodeError(core.KindOf(err), errString(err)))
		return
	}
	if _, ok := sc.stmts[id]; !ok {
		_ = sc.w.writeFrame(MsgErr, EncodeError(core.KindName,
			"unknown prepared-statement id"))
		return
	}
	delete(sc.stmts, id)
	sc.srv.stmtCount.Add(-1)
	_ = sc.w.writeFrame(MsgCloseStmtOK, nil)
}

// serveConn speaks the protocol with one client: auth handshake, then three
// goroutines until MsgClose, disconnect, or server drain. The reader is the
// frame loop: it reads the socket and handles each frame itself, so a ping
// or a debug command costs no hand-off and a client may pipeline requests.
// The query worker executes statements — a debug launch among them, with
// its debuggee — in FIFO order. This goroutine is lifecycle only: it waits
// for the reader or for the server's drain. Debug events are pushed by the
// worker through the shared connWriter, interleaving with (but never
// corrupting) the frame loop's replies.
func (s *Server) serveConn(nc net.Conn) {
	if max := s.MaxConns; max > 0 {
		if int(s.connCount.Add(1)) > max {
			s.connCount.Add(-1)
			s.rejectConn(nc)
			return
		}
		defer s.connCount.Add(-1)
	}
	defer nc.Close()
	m := s.metrics
	if m != nil {
		nc = countingConn{Conn: nc, in: m.bytesIn, out: m.bytesOut}
	}
	sess, err := s.handshake(nc)
	if err != nil {
		s.logf("handshake failed from %s: %v", nc.RemoteAddr(), err)
		return
	}
	if m != nil {
		m.countMsg(MsgAuth)
		m.connsOpened.Inc()
		m.connsActive.Add(1)
		defer m.connsActive.Add(-1)
	}
	s.logf("session opened: user=%s proto=v%d from %s", sess.User, ProtoV2, nc.RemoteAddr())

	sc := &serverConn{
		srv:        s,
		w:          &connWriter{fw: frameWriter{w: nc}},
		sess:       sess,
		connDone:   make(chan struct{}),
		gone:       make(chan struct{}),
		queries:    newQueryQueue(),
		workerDone: make(chan struct{}),
	}
	if s.RateLimit > 0 {
		sc.limiter = newTokenBucket(s.RateLimit, s.RateBurst)
	}
	if m != nil {
		sc.queries.depth = m.queueDepth
	}
	go sc.queryWorker()
	kicked := make(chan bool, 1)
	go func() { kicked <- sc.frameLoop(nc) }()

	select {
	case <-kicked:
		// The session ended on the frame loop: goodbye said, framing
		// broken, or the client gone.
		sc.shutdown()
		return
	case <-s.drain:
	}
	// Graceful drain: stop reading, answer everything already read, say
	// goodbye, hang up. A read deadline in the past fails the reader's next
	// socket read but not the frames it has already buffered; shutdown kills
	// any paused debuggee and flushes the query worker. DrainTimeout, when
	// set, bounds the flush: past the deadline the connection's interrupt
	// fires and stuck statements abort with a typed cancelled error instead
	// of stalling Close.
	_ = nc.SetReadDeadline(time.Now())
	if s.DrainTimeout > 0 {
		defer time.AfterFunc(s.DrainTimeout, sc.markGone).Stop()
	}
	owedGoodbye := <-kicked
	sc.shutdown()
	if owedGoodbye {
		_ = sc.w.writeFrame(MsgGoodbye, nil)
		s.logf("session drained: user=%s from %s", sess.User, nc.RemoteAddr())
	}
}

// frameLoop reads the connection and handles every frame until the session
// ends. It reports whether it was the drain's read deadline that stopped it:
// then the session is still open, the caller owes the client its goodbye,
// and — a drain not being a dead client — the interrupt has not fired.
func (sc *serverConn) frameLoop(nc net.Conn) (kicked bool) {
	s := sc.srv
	br := bufio.NewReader(nc)
	for {
		typ, payload, err := ReadFrame(br)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return true
		}
		if err != nil {
			// Any other read failure — EOF included — means the client can
			// no longer deliver requests and (absent a clean MsgClose) is
			// not waiting for responses: fire the interrupt so in-flight
			// statements abort instead of running to completion for a dead
			// peer.
			sc.markGone()
			if err != io.EOF {
				s.logf("read from %s: %v", nc.RemoteAddr(), err)
			}
			return false
		}
		s.metrics.countMsg(typ)
		if !sc.handleFrame(frame{typ, payload}) {
			return false
		}
	}
}

// rejectConn refuses an over-limit connection cleanly: read the client's
// opening auth frame (so the peer is parked reading, not mid-write),
// answer with a retryable overload error, and hang up. Existing sessions
// are untouched.
func (s *Server) rejectConn(nc net.Conn) {
	defer nc.Close()
	s.connsRejected.Add(1)
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := readAuthFrame(nc); err != nil {
		return
	}
	_ = WriteFrame(nc, MsgErr, EncodeError(core.KindOverload,
		"server connection limit reached; safe to retry"))
	s.logf("connection rejected (over MaxConns=%d) from %s", s.MaxConns, nc.RemoteAddr())
}

// handleFrame processes one request, reporting whether the connection
// should keep serving. Queries are queued to the per-connection worker (in
// FIFO order, so response ordering is preserved) rather than executed here,
// although executing here would save the hand-off: while a statement ran
// nobody would read the socket, so a flood would back up in TCP instead of
// being shed, a dead client would go unnoticed until its statement
// finished, and the resume for a debug query paused at a breakpoint — which
// holds the engine lock — could never arrive.
func (sc *serverConn) handleFrame(fr frame) bool {
	// MsgAuth is only legal during the handshake, before the frame loop
	// starts; here it takes the default arm.
	switch fr.typ {
	case MsgQuery, MsgPrepare, MsgExecStmt, MsgCloseStmt:
		sc.admit(fr)
		return true
	case MsgDebug:
		return sc.handleDebug(fr.payload)
	case MsgPing:
		return sc.w.writeFrame(MsgPong, nil) == nil
	case MsgClose:
		sc.shutdown() // flush pending query responses first
		_ = sc.w.writeFrame(MsgGoodbye, nil)
		return false
	default:
		sc.shutdown()
		_ = sc.w.writeFrame(MsgErr, EncodeError(core.KindProtocol, "unexpected message type"))
		return false
	}
}

// admit routes one statement-executing request through admission
// control: first the per-session rate limit, then the bounded queue.
// Refused requests are shed — answered in FIFO position with a retryable
// overload error — never dropped silently.
func (sc *serverConn) admit(fr frame) {
	if sc.limiter != nil && !sc.limiter.allow(time.Now()) {
		sc.queries.shed()
		return
	}
	limit := sc.srv.MaxQueueDepth
	if limit == 0 {
		limit = defaultMaxQueueDepth
	}
	sc.queries.push(qitem{fr: fr}, limit)
}

// writeResult ships a statement result: small results get the one-shot
// MsgResult; results whose encoding crosses the stream threshold travel as
// a MsgResultChunk/MsgResultEnd stream and are therefore not bounded by
// the frame cap. Sizing and the one-shot encoding happen before the
// connection's write lock is taken, so a debug event push waits for frame
// writes only.
func (sc *serverConn) writeResult(res *engine.Result) error {
	s := sc.srv
	if res.Table == nil {
		return sc.w.writeFrame(MsgResult, EncodeResult(res.Msg, nil))
	}
	size := storage.EncodedTableSize(res.Table, 0, res.Table.NumRows())
	if max := s.MaxResultBytes; max > 0 && size > max {
		return sc.w.writeFrame(MsgErr, EncodeError(core.KindResource,
			"result exceeds the per-query byte budget; add a LIMIT or raise the budget"))
	}
	threshold := s.StreamThreshold
	if threshold == 0 {
		threshold = 1 << 20
	}
	// A threshold at or above the frame cap would route unframeable
	// results onto the one-shot path; anything near the cap must stream.
	if threshold > maxFrame/2 {
		threshold = maxFrame / 2
	}
	if threshold < 0 || size > threshold {
		return sc.w.writeStream(res.Msg, res.Table, s.ChunkBytes)
	}
	return sc.w.writeFrame(MsgResult, EncodeResult(res.Msg, res.Table))
}

func errString(err error) string {
	var ce *core.Error
	if errors.As(err, &ce) {
		return ce.Msg
	}
	return err.Error()
}

// readAuthFrame reads a connection's opening frame under the pre-auth size
// cap. A header that claims more (or zero) is answered with a typed protocol
// error before any body is waited for; the caller hangs up.
func readAuthFrame(nc net.Conn) (typ byte, payload []byte, err error) {
	typ, payload, err = readFrameMax(nc, maxAuthFrame)
	if core.KindOf(err) == core.KindProtocol {
		_ = WriteFrame(nc, MsgErr, EncodeError(core.KindProtocol, errString(err)))
	}
	return typ, payload, err
}

// handshake authenticates one client. One that offers less than protocol
// v2, or sends no version byte at all, is refused with a typed protocol
// error before its credentials are looked at: every session speaks v2.
func (s *Server) handshake(nc net.Conn) (*engine.Conn, error) {
	typ, payload, err := readAuthFrame(nc)
	if err != nil {
		return nil, err
	}
	if typ != MsgAuth {
		_ = WriteFrame(nc, MsgErr, EncodeError(core.KindProtocol, "expected auth message"))
		return nil, core.Errorf(core.KindProtocol, "expected auth, got type %d", typ)
	}
	user, password, database, version, err := DecodeAuth(payload)
	if err != nil {
		return nil, err
	}
	if version < ProtoV2 {
		_ = WriteFrame(nc, MsgErr, EncodeError(core.KindProtocol,
			"protocol v1 is no longer served; reconnect with a v2 client"))
		return nil, core.Errorf(core.KindProtocol, "client offered protocol v%d, need v%d", version, ProtoV2)
	}
	if database != s.Database {
		_ = WriteFrame(nc, MsgErr, EncodeError(core.KindAuth, "unknown database "+database))
		return nil, core.Errorf(core.KindAuth, "unknown database %q", database)
	}
	want, ok := s.Users[user]
	if !ok || want != password {
		_ = WriteFrame(nc, MsgErr, EncodeError(core.KindAuth, "invalid credentials"))
		return nil, core.Errorf(core.KindAuth, "invalid credentials for %q", user)
	}
	// Clients offering a later version are served at ours.
	if err := WriteFrame(nc, MsgAuthOK, EncodeAuthOK("monetlite/2.0", ProtoV2)); err != nil {
		return nil, err
	}
	return &engine.Conn{DB: s.DB, User: user, Password: password}, nil
}

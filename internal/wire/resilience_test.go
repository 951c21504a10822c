package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultnet"
	"repro/internal/storage"
)

// spinUDF loops until it is cancelled: every test that runs it interrupts
// it within a few hundred milliseconds. It is sized in interpreter steps,
// not seconds — 200M of them, four times the 50M default step budget, which
// is the backstop that ends a run whose interrupt was lost. A faster
// interpreter only brings that backstop closer; it stays seconds away.
const spinUDF = `CREATE FUNCTION spin(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    s = 0
    for k in range(0, 100000000):
        s += k
    return x
};`

// busyUDF finishes on its own after 6M interpreter steps. It only has to
// outlast the server reading the few small frames pipelined behind it
// (microseconds), so its margin is four orders of magnitude at any
// interpreter speed.
const busyUDF = `CREATE FUNCTION busy(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    s = 0
    for k in range(0, 3000000):
        s += k
    return x
};`

// startConfiguredServer is startTestServer with resilience knobs applied
// before Listen — the serving goroutines read them unsynchronized.
func startConfiguredServer(t *testing.T, configure func(*Server)) (*Server, ConnParams) {
	t.Helper()
	db := engine.NewDB()
	db.FS = core.NewMemFS(nil)
	srv := NewServer("demo", "monetdb", "secret", db)
	configure(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	host, port, _ := splitHostPort(addr)
	return srv, ConnParams{Host: host, Port: port, Database: "demo", User: "monetdb", Password: "secret"}
}

// ---- server-side query timeout ----

func TestQueryTimeoutCancelsStatement(t *testing.T) {
	srv, params := startConfiguredServer(t, func(s *Server) {
		s.QueryTimeout = 100 * time.Millisecond
	})
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(background(), spinUDF); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err = c.Query(background(), `SELECT spin(1)`)
	if !core.IsCancelled(err) {
		t.Fatalf("want typed cancelled error over the wire, got %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("timeout took %v to fire", d)
	}
	// The session survives its cancelled statement.
	if _, _, err := c.Query(background(), `SELECT 1 AS one`); err != nil {
		t.Fatalf("connection unusable after timeout: %v", err)
	}
	if srv.DB.QueriesCancelled() == 0 {
		t.Fatal("engine_queries_cancelled_total not bumped")
	}
}

// TestQueryTimeoutFailsGoUDF: a native GO UDF cannot be preempted, so one
// that sleeps past the query timeout runs to its end, and the engine's
// checkpoint after the projection fails the statement.
func TestQueryTimeoutFailsGoUDF(t *testing.T) {
	var calls atomic.Int64
	srv, params := startConfiguredServer(t, func(s *Server) {
		s.QueryTimeout = 20 * time.Millisecond
		if err := s.DB.RegisterGoUDF("nap_wire", func(x []int64) []int64 {
			calls.Add(1)
			time.Sleep(100 * time.Millisecond)
			return x
		}); err != nil {
			t.Fatal(err)
		}
	})
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Query(background(), `SELECT nap_wire(1) AS v`); !core.IsCancelled(err) {
		t.Fatalf("want typed cancelled error over the wire, got %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("nap_wire ran %d times, want once", n)
	}
	if _, _, err := c.Query(background(), `SELECT 1 AS one`); err != nil {
		t.Fatalf("connection unusable after timeout: %v", err)
	}
	if srv.DB.QueriesCancelled() == 0 {
		t.Fatal("engine_queries_cancelled_total not bumped")
	}
}

// ---- client death mid-query reclaims the engine ----

// TestKillClientMidQueryReclaimsEngine is the acceptance scenario: a
// client killed mid-statement must not strand the engine lock or a
// worker. The next client's statement has to run within the deadline.
func TestKillClientMidQueryReclaimsEngine(t *testing.T) {
	srv, params := startTestServer(t)
	setup, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec(background(), spinUDF); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	// Raw connection: handshake, fire the long query, then die abruptly
	// with no MsgClose — the way a crashed process disappears.
	nc, err := net.Dial("tcp", params.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(nc, MsgAuth, EncodeAuth("monetdb", "secret", "demo", ProtoV2)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := ReadFrame(nc); err != nil || typ != MsgAuthOK {
		t.Fatalf("handshake: %d %v", typ, err)
	}
	if err := WriteFrame(nc, MsgQuery, []byte(`SELECT spin(9)`)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the statement reach the engine
	nc.Close()

	// A fresh session must get the engine promptly: the dead client's
	// statement aborts at its next interrupt checkpoint and releases the
	// database lock.
	c2, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ctx, cancel := context.WithTimeout(background(), 5*time.Second)
	defer cancel()
	if _, _, err := c2.Query(ctx, `SELECT 1 AS one`); err != nil {
		t.Fatalf("engine not reclaimed after client death: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.DB.QueriesCancelled() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned statement never recorded as cancelled")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ---- admission control ----

func TestRateLimitShedsWithRetryableError(t *testing.T) {
	srv, params := startConfiguredServer(t, func(s *Server) {
		s.RateLimit = 0.001 // effectively no refill within the test
	})
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Query(background(), `SELECT 1 AS one`); err != nil {
		t.Fatalf("first query spends the burst token and must pass: %v", err)
	}
	_, _, err = c.Query(background(), `SELECT 1 AS one`)
	if core.KindOf(err) != core.KindOverload {
		t.Fatalf("want overload error, got %v", err)
	}
	if !core.Retryable(err) {
		t.Fatalf("a shed request must be safe to retry: %v", err)
	}
	if got := srv.QueriesShed(); got != 1 {
		t.Fatalf("QueriesShed = %d, want 1", got)
	}
	// Shedding answers the request; it does not poison the session.
	if err := c.Ping(background()); err != nil {
		t.Fatalf("session dead after shed: %v", err)
	}
}

// TestRateLimitBurstIsOneSecondOfTheRate: the bucket holds one second of
// the rate, so at two requests a second a client's two back-to-back
// requests both pass and a third sent at once is shed.
func TestRateLimitBurstIsOneSecondOfTheRate(t *testing.T) {
	srv, params := startConfiguredServer(t, func(s *Server) {
		s.RateLimit = 2
	})
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 1; i <= 2; i++ {
		if _, _, err := c.Query(background(), `SELECT 1 AS one`); err != nil {
			t.Fatalf("request %d of a second's worth must pass: %v", i, err)
		}
	}
	if _, _, err := c.Query(background(), `SELECT 1 AS one`); core.KindOf(err) != core.KindOverload {
		t.Fatalf("a third request at once: want overload error, got %v", err)
	}
	if got := srv.QueriesShed(); got != 1 {
		t.Fatalf("QueriesShed = %d, want 1", got)
	}
}

// TestQueueBoundShedsInFIFOOrder pipelines past MaxQueueDepth and checks
// the saturation contract: every request is answered in its FIFO position,
// either with its own result or with a retryable overload error — never
// dropped, never answered out of turn. Which of the pipelined requests are
// shed is not part of the contract: it depends on whether the worker had
// already dequeued the slow query when they arrived, so each query returns
// its own position and the test checks response i against request i.
func TestQueueBoundShedsInFIFOOrder(t *testing.T) {
	srv, params := startConfiguredServer(t, func(s *Server) {
		s.MaxQueueDepth = 1
	})
	setup, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec(background(), busyUDF); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	nc, err := net.Dial("tcp", params.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := WriteFrame(nc, MsgAuth, EncodeAuth("monetdb", "secret", "demo", ProtoV2)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := ReadFrame(nc); err != nil || typ != MsgAuthOK {
		t.Fatalf("handshake: %d %v", typ, err)
	}
	// One slow query, then four fast ones on its heels: at most one of
	// them fits the depth-1 queue while the slow one runs.
	const pipelined = 5
	if err := WriteFrame(nc, MsgQuery, []byte(`SELECT busy(0) AS pos`)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < pipelined; i++ {
		if err := WriteFrame(nc, MsgQuery, []byte(fmt.Sprintf(`SELECT %d AS pos`, i))); err != nil {
			t.Fatal(err)
		}
	}
	var results, sheds int
	for i := 0; i < pipelined; i++ {
		typ, payload, err := ReadFrame(nc)
		if err != nil {
			t.Fatalf("response %d: %v (a bounded queue must answer, not drop)", i, err)
		}
		switch typ {
		case MsgResult:
			results++
			_, tbl, err := DecodeResult(payload)
			if err != nil || tbl.NumRows() != 1 || tbl.Cols[0].Ints[0] != int64(i) {
				t.Fatalf("response %d does not answer request %d — FIFO order broken: %v %v", i, i, tbl, err)
			}
		case MsgErr:
			sheds++
			derr := DecodeError(payload)
			if core.KindOf(derr) != core.KindOverload || !core.Retryable(derr) {
				t.Fatalf("response %d: shed must be retryable overload, got %v", i, derr)
			}
		default:
			t.Fatalf("response %d: unexpected frame type %d", i, typ)
		}
	}
	if results == 0 || sheds == 0 {
		t.Fatalf("want both completions and sheds, got %d results, %d sheds", results, sheds)
	}
	if got := srv.QueriesShed(); got != uint64(sheds) {
		t.Fatalf("QueriesShed = %d, want %d", got, sheds)
	}
}

// TestMaxConnsRejectsCleanly is the regression for the connection cap: an
// over-limit handshake gets a typed retryable error, existing sessions
// keep working, and the listener serves new connections once a slot
// frees up.
func TestMaxConnsRejectsCleanly(t *testing.T) {
	srv, params := startConfiguredServer(t, func(s *Server) {
		s.MaxConns = 1
	})
	c1, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c1.Query(background(), `SELECT 1 AS one`); err != nil {
		t.Fatal(err)
	}
	_, err = DialContext(background(), params)
	if core.KindOf(err) != core.KindOverload || !core.Retryable(err) {
		t.Fatalf("over-limit dial: want retryable overload, got %v", err)
	}
	if got := srv.ConnsRejected(); got == 0 {
		t.Fatal("ConnsRejected not bumped")
	}
	// The first session is unaffected by the rejection.
	if _, _, err := c1.Query(background(), `SELECT 2 AS two`); err != nil {
		t.Fatalf("existing session broken by a rejected handshake: %v", err)
	}
	c1.Close()
	// The slot frees asynchronously with the session teardown.
	deadline := time.Now().Add(5 * time.Second)
	var c2 *Client
	for {
		c2, err = DialContext(background(), params)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("listener stopped admitting after a rejection: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer c2.Close()
	if _, _, err := c2.Query(background(), `SELECT 3 AS three`); err != nil {
		t.Fatal(err)
	}
}

// ---- graceful drain ----

// TestDrainRacesStreamedResult closes the server while a chunked result
// stream is in flight: the stream must complete (clean drain waits for
// in-flight statements) and Close must return.
func TestDrainRacesStreamedResult(t *testing.T) {
	srv, params := startConfiguredServer(t, func(s *Server) {
		s.StreamThreshold = -1 // stream everything
		s.ChunkBytes = 256     // many small chunks widen the race window
	})
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(background(), `CREATE TABLE t (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
	const rows = 2000
	for lo := 0; lo < rows; lo += 500 {
		var b strings.Builder
		b.WriteString(`INSERT INTO t VALUES `)
		for i := lo; i < lo+500; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d)", i)
		}
		if _, err := c.Exec(background(), b.String()); err != nil {
			t.Fatal(err)
		}
	}
	r, err := c.QueryStream(background(), `SELECT i FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	var got int64
	for r.Next() {
		got += int64(r.Batch().NumRows())
	}
	if err := r.Err(); err != nil {
		t.Fatalf("stream broken by drain: %v", err)
	}
	if got != rows {
		t.Fatalf("streamed %d rows, want %d", got, rows)
	}
	r.Close()
	c.Close()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the stream finished")
	}
}

// TestDrainTimeoutAbortsInFlight bounds shutdown: a statement still
// running past DrainTimeout is interrupted instead of holding Close
// hostage.
func TestDrainTimeoutAbortsInFlight(t *testing.T) {
	srv, params := startConfiguredServer(t, func(s *Server) {
		s.DrainTimeout = 100 * time.Millisecond
	})
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(background(), spinUDF); err != nil {
		t.Fatal(err)
	}
	qdone := make(chan error, 1)
	go func() {
		_, _, err := c.Query(background(), `SELECT spin(4)`)
		qdone <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the statement reach the engine
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung past DrainTimeout on an in-flight statement")
	}
	select {
	case err := <-qdone:
		// The statement was forcibly cancelled; depending on who wins the
		// race the client sees the typed cancellation or the dying socket.
		if err == nil {
			t.Fatal("in-flight statement should not complete past DrainTimeout")
		}
		if !core.IsCancelled(err) && core.KindOf(err) != core.KindIO {
			t.Fatalf("want cancelled or IO error, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client query hung after forced drain")
	}
}

// ---- pool checkouts under sheds, dead dials and churn ----

// TestPoolShedStatementsAreOneAttempt: a statement the server shed before
// running it surfaces as the typed overload error after exactly one shed,
// a prepared execution on a checked-out connection exactly as an ad-hoc
// query through the pool. The session's rate limiter has one token that
// never refills and Prepare spends it, so every later request is shed —
// with no dependence on timing.
func TestPoolShedStatementsAreOneAttempt(t *testing.T) {
	srv, params := startConfiguredServer(t, func(s *Server) {
		s.RateLimit = 0.001 // effectively no refill within the test
	})
	pool := NewPool(params, 1)
	defer pool.Close()
	ctx := background()
	oneShed := func(name string, run func() error) {
		t.Helper()
		shed := srv.QueriesShed()
		err := run()
		if core.KindOf(err) != core.KindOverload {
			t.Fatalf("%s: want the overload error of the shed, got %v", name, err)
		}
		if got := srv.QueriesShed() - shed; got != 1 {
			t.Errorf("%s: server shed %d requests, want 1", name, got)
		}
	}
	// The limiter is per session: prepare on the connection whose token
	// the executions would spend.
	c, err := pool.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare(ctx, `SELECT ? AS x`)
	if err != nil {
		t.Fatalf("prepare spends the burst token and must pass: %v", err)
	}
	oneShed("Stmt.Query", func() error { _, _, err := st.Query(ctx, int64(1)); return err })
	oneShed("Stmt.Exec", func() error { _, err := st.Exec(ctx, int64(1)); return err })
	oneShed("Stmt.QueryStream", func() error { _, err := st.QueryStream(ctx, int64(1)); return err })
	pool.Put(c)
	oneShed("Pool.Query", func() error { _, _, err := pool.Query(ctx, `SELECT 1 AS x`); return err })
	// Sheds leave the pooled connection in sync and reusable.
	if st := pool.StatsSnapshot(); st.Dials != 1 || st.Discards != 0 {
		t.Fatalf("sheds must not cost the connection: %+v", st)
	}
}

// TestDialCancelIsKindCancelled: a dial whose context is already done (the
// caller gave up, or its deadline passed) is a cancellation, with the
// context's error as its cause — not a transport failure of the endpoint.
// A refused connect under a live context stays KindIO.
func TestDialCancelIsKindCancelled(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	host, port, _ := splitHostPort(ln.Addr().String())
	params := ConnParams{Host: host, Port: port, Database: "demo", User: "monetdb", Password: "secret"}
	cancelled, cancel := context.WithCancel(background())
	cancel()
	expired, cancel := context.WithDeadline(background(), time.Unix(0, 0))
	defer cancel()
	for _, tc := range []struct {
		name  string
		ctx   context.Context
		cause error
	}{
		{"cancelled", cancelled, context.Canceled},
		{"deadline", expired, context.DeadlineExceeded},
	} {
		_, err := DialContext(tc.ctx, params)
		if core.KindOf(err) != core.KindCancelled || !errors.Is(err, tc.cause) {
			t.Fatalf("%s: dial under a done context = %v (kind %v), want KindCancelled wrapping %v",
				tc.name, err, core.KindOf(err), tc.cause)
		}
	}
	ln.Close()
	if _, err := DialContext(background(), params); core.KindOf(err) != core.KindIO {
		t.Fatalf("refused connect under a live context = %v, want KindIO", err)
	}
}

// TestDialTimeoutIsKindIO: a connect that outlives the dialer's own
// timeout is the endpoint's failure, not the caller's. net reports it with
// an error that answers errors.Is(err, context.DeadlineExceeded), and it
// must still be KindIO — core.Wrapf recognises a cancellation by identity,
// not by errors.Is.
func TestDialTimeoutIsKindIO(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	host, port, _ := splitHostPort(ln.Addr().String())
	params := ConnParams{Host: host, Port: port, Database: "demo", User: "monetdb", Password: "secret"}
	_, err = dial(background(), params, time.Nanosecond)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dial under a 1ns dialer timeout = %v, want net's timeout error", err)
	}
	if core.KindOf(err) != core.KindIO || core.IsCancelled(err) {
		t.Fatalf("dialer timeout = %v (kind %v), want KindIO", err, core.KindOf(err))
	}
}

// TestPoolCancelledDialIsKindCancelled: a pooled query whose caller gives
// up while its connection is being established — before the connect, or
// mid-handshake against a server that accepted and then stalls — fails as
// a cancellation and frees its slot. The stall is a listener that reads the
// auth frame and never answers; each caller is cancelled only once the
// server has that frame in hand.
func TestPoolCancelledDialIsKindCancelled(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	authSeen := make(chan struct{}, 16)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				if _, _, err := ReadFrame(nc); err != nil {
					return
				}
				authSeen <- struct{}{}
				io.Copy(io.Discard, nc) // hold the socket until the client hangs up
			}()
		}
	}()
	host, port, _ := splitHostPort(ln.Addr().String())
	params := ConnParams{Host: host, Port: port, Database: "demo", User: "monetdb", Password: "secret"}
	pool := NewPool(params, 1)
	defer pool.Close()

	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(background())
		if i%2 == 0 {
			cancel() // gave up before the connect
		} else {
			go func() { <-authSeen; cancel() }() // gave up mid-handshake
		}
		_, _, err := pool.Query(ctx, `SELECT 1`)
		cancel()
		if core.KindOf(err) != core.KindCancelled {
			t.Fatalf("attempt %d: %v (kind %v), want KindCancelled", i, err, core.KindOf(err))
		}
		if st := pool.StatsSnapshot(); st.InUse != 0 {
			t.Fatalf("attempt %d: cancelled dial kept its slot: %+v", i, st)
		}
	}
}

// TestPoolSurvivesFaultnetChurn drives a pool through a proxy that
// randomly resets connections: operations may fail with typed errors, but
// the pool must neither hang nor wedge, and some work must get through.
func TestPoolSurvivesFaultnetChurn(t *testing.T) {
	_, params := startTestServer(t)
	proxy, err := faultnet.NewProxy(params.Addr(), faultnet.Plan{
		Seed:       2026,
		ResetProb:  0.03,
		LatencyMax: 500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	host, port, _ := splitHostPort(proxy.Addr())
	pp := params
	pp.Host, pp.Port = host, port
	pool := NewPool(pp, 4)
	defer pool.Close()

	const workers, perWorker = 4, 20
	var ok, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx, cancel := context.WithTimeout(background(), 5*time.Second)
				_, _, err := pool.Query(ctx, `SELECT 1 AS one`)
				cancel()
				if err == nil {
					ok.Add(1)
				} else {
					failed.Add(1)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("pool wedged under connection churn")
	}
	if ok.Load() == 0 {
		t.Fatalf("no query survived the churn (%d failures)", failed.Load())
	}
	t.Logf("churn: %d ok, %d failed", ok.Load(), failed.Load())
}

// ---- chaos: the server never deadlocks or leaks under fire ----

// TestChaosServerSurvives serves through a faultnet listener injecting
// latency, partial writes, resets, and corruption while clients hammer
// it. The assertions are the resilience invariants: the process never
// deadlocks, shutdown completes, and no statement leaks.
func TestChaosServerSurvives(t *testing.T) {
	db := engine.NewDB()
	db.FS = core.NewMemFS(nil)
	srv := NewServer("demo", "monetdb", "secret", db)
	srv.MaxConns = 8
	srv.MaxQueueDepth = 4
	srv.RateLimit = 200
	srv.QueryTimeout = 2 * time.Second
	srv.DrainTimeout = 2 * time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.ServeListener(faultnet.Listener(ln, faultnet.Plan{
		Seed:             7,
		LatencyMax:       500 * time.Microsecond,
		PartialWriteProb: 0.2,
		ResetProb:        0.02,
		CorruptProb:      0.01,
	}))
	host, port, _ := splitHostPort(addr)
	params := ConnParams{Host: host, Port: port, Database: "demo", User: "monetdb", Password: "secret"}

	const workers, perWorker = 6, 15
	var wg sync.WaitGroup
	var ok atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx, cancel := context.WithTimeout(background(), 2*time.Second)
				c, err := DialContext(ctx, params)
				if err == nil {
					if _, _, err := c.Query(ctx, `SELECT 1 AS one`); err == nil {
						ok.Add(1)
					}
					c.Close()
				}
				cancel()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("chaos clients wedged")
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server failed to shut down after chaos")
	}
	if n := srv.OpenStatements(); n != 0 {
		t.Fatalf("leaked %d statements through the chaos run", n)
	}
	t.Logf("chaos: %d/%d queries succeeded through the faulted network", ok.Load(), workers*perWorker)
}

// TestPoolCheckoutCancelIsKindCancelled pins the classification of a
// checkout abandoned by its caller: it is a cancellation, not a transport
// failure, so core.IsCancelled recognizes it and retry logic does not
// re-attempt a deliberately abandoned checkout as if the pool were broken.
// (Regression: this path used to wrap ctx.Err as KindIO.)
func TestPoolCheckoutCancelIsKindCancelled(t *testing.T) {
	srv, params := startConfiguredServer(t, func(s *Server) {})
	_ = srv
	pool := NewPool(params, 1)
	defer pool.Close()
	// Occupy the pool's only slot so the next checkout must wait.
	c, err := pool.Get(background())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Put(c)
	ctx, cancel := context.WithCancel(background())
	cancel()
	if _, err := pool.Get(ctx); err == nil {
		t.Fatal("checkout with a cancelled context should fail")
	} else if !core.IsCancelled(err) {
		t.Fatalf("cancelled checkout should carry KindCancelled, got %v (%v)", core.KindOf(err), err)
	}
}

// TestHugeRangeFromUDFIsATypedError: a UDF may loop over range(0, 2**42),
// but returning it as a column or pickling it would allocate its length.
// Both used to ask the Go runtime for 64 TiB, which is a fatal error, not a
// panic: one statement killed the daemon. They are refused with the error
// list(range(...)) always gave, and the server keeps serving.
func TestHugeRangeFromUDFIsATypedError(t *testing.T) {
	_, params := startTestServer(t)
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := background()
	for _, sql := range []string{
		`CREATE FUNCTION huge(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return range(0, 2**42) }`,
		`CREATE FUNCTION huge_pickle(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    import pickle
    return len(pickle.dumps(range(0, 2**42)))
}`,
		`CREATE FUNCTION legal(x INTEGER) RETURNS TABLE(i INTEGER) LANGUAGE PYTHON { return range(0, x) }`,
	} {
		if _, _, err := c.Query(ctx, sql); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{`SELECT huge(1)`, `SELECT huge_pickle(1)`} {
		_, _, err := c.Query(ctx, sql)
		if core.KindOf(err) != core.KindRuntime || !strings.Contains(err.Error(), "range of 4398046511104 elements is too large to materialize") {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	_, table, err := c.Query(ctx, `SELECT COUNT(*) AS n, SUM(i) AS s FROM legal(100000)`)
	if err != nil || table.Cols[0].FormatValue(0) != "100000" || table.Cols[1].FormatValue(0) != "4999950000" {
		t.Fatalf("a legal range after the refused ones: %v %v", table, err)
	}
}

// ---- per-query result budget ----

// TestMaxResultBytes: the budget is on the result's encoded size, to the
// byte. A result exactly at it ships, one a byte over is answered with a
// resource error before anything of it is written, and the connection
// carries on either way — whether results leave in one frame or as a stream.
func TestMaxResultBytes(t *testing.T) {
	for _, mode := range []struct {
		name            string
		streamThreshold int
	}{{"one-shot", 0}, {"streamed", -1}} {
		t.Run(mode.name, func(t *testing.T) {
			_, params := startConfiguredServer(t, func(s *Server) {
				conn := &engine.Conn{DB: s.DB, User: "monetdb", Password: "secret"}
				for _, sql := range []string{
					`CREATE TABLE fits (s STRING, i INTEGER)`,
					`INSERT INTO fits VALUES ('aaaa', 1), ('bbbb', NULL), (NULL, 3)`,
					`CREATE TABLE over (s STRING, i INTEGER)`,
					`INSERT INTO over VALUES ('aaaa', 1), ('bbbbb', NULL), (NULL, 3)`,
				} {
					if _, err := conn.Exec(sql); err != nil {
						t.Fatal(err)
					}
				}
				r, err := conn.Exec(`SELECT s, i FROM fits`)
				if err != nil {
					t.Fatal(err)
				}
				s.DB.MaxResultBytes = len(storage.EncodeTable(nil, r.Table))
				s.StreamThreshold = mode.streamThreshold
				s.ChunkBytes = 64 // a row or two per chunk when streaming
			})
			c, err := DialContext(background(), params)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for round := 0; round < 2; round++ {
				_, _, err = c.Query(background(), `SELECT s, i FROM over`)
				if core.KindOf(err) != core.KindResource {
					t.Fatalf("a result one byte over the budget: want a resource error, got %v", err)
				}
				rows, err := c.QueryStream(background(), `SELECT s, i FROM fits`)
				if err != nil {
					t.Fatalf("a result exactly at the budget: %v", err)
				}
				if streamed := mode.streamThreshold < 0; rows.Streaming() != streamed {
					t.Fatalf("result streamed: %v, want %v", rows.Streaming(), streamed)
				}
				_, tbl, err := rows.ReadAll()
				if err != nil || tbl.NumRows() != 3 || tbl.Cols[0].Strs[1] != "bbbb" {
					t.Fatalf("a result exactly at the budget: %v, %v", tbl, err)
				}
			}
			if _, tbl, err := c.Query(background(), `SELECT 7 AS n`); err != nil || tbl.Cols[0].Ints[0] != 7 {
				t.Fatalf("the statement after: %v", err)
			}
		})
	}
}

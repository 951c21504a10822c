package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultnet"
	"repro/internal/storage"
)

// The tests below pin the shape of the connection IO rather than its speed:
// how many Write and Read calls a round trip makes, that a frame decodes the
// same however the bytes are cut into reads, and what a drain does with
// frames that were read before it fired. All of them count or gate calls on
// a wrapped net.Conn; none of them times anything.

// spyConn counts a connection's reads and writes and lets a test step in
// front of them.
type spyConn struct {
	net.Conn
	reads, writes  atomic.Int64
	read           io.Reader    // replaces Conn.Read when set
	beforeWrite    func([]byte) // runs ahead of every Write
	onReadDeadline func()       // runs on every SetReadDeadline
}

func (c *spyConn) Read(p []byte) (int, error) {
	r := io.Reader(c.Conn)
	if c.read != nil {
		r = c.read
	}
	n, err := r.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c *spyConn) Write(p []byte) (int, error) {
	// Counted before the bytes leave, so a peer that has the reply in hand
	// sees the count that produced it.
	c.writes.Add(1)
	if c.beforeWrite != nil {
		c.beforeWrite(p)
	}
	return c.Conn.Write(p)
}

func (c *spyConn) SetReadDeadline(t time.Time) error {
	if c.onReadDeadline != nil {
		c.onReadDeadline()
	}
	return c.Conn.SetReadDeadline(t)
}

// spyListener hands every accepted connection to wrap and serves what wrap
// returns.
type spyListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l spyListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(nc), nil
}

// startSpiedServer serves a fresh database behind a spyListener and
// returns, besides the usual pair, a channel delivering each accepted
// connection's spy.
func startSpiedServer(t *testing.T, configure func(*spyConn)) (*Server, ConnParams, <-chan *spyConn) {
	t.Helper()
	db := engine.NewDB()
	db.FS = core.NewMemFS(nil)
	srv := NewServer("demo", "monetdb", "secret", db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	spies := make(chan *spyConn, 8) // a test here opens at most a few connections
	addr := srv.ServeListener(spyListener{ln, func(nc net.Conn) net.Conn {
		spy := &spyConn{Conn: nc}
		if configure != nil {
			configure(spy)
		}
		spies <- spy
		return spy
	}})
	t.Cleanup(func() { srv.Close() })
	host, port, _ := splitHostPort(addr)
	return srv, ConnParams{Host: host, Port: port, Database: "demo", User: "monetdb", Password: "secret"}, spies
}

// dialSpied is DialContext with the client's side of the socket counted.
func dialSpied(t *testing.T, params ConnParams) (*Client, *spyConn) {
	t.Helper()
	nc, err := net.Dial("tcp", params.Addr())
	if err != nil {
		t.Fatal(err)
	}
	spy := &spyConn{Conn: nc}
	c, err := newClient(background(), spy, params)
	if err != nil {
		nc.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, spy
}

// rawSession opens a socket, authenticates by hand and returns it with the
// one reader its replies must be read through.
func rawSession(t *testing.T, params ConnParams) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", params.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	br := bufio.NewReader(nc)
	if err := WriteFrame(nc, MsgAuth, EncodeAuth(params.User, params.Password, params.Database, ProtoV2)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := ReadFrame(br); err != nil || typ != MsgAuthOK {
		t.Fatalf("handshake: %d %v", typ, err)
	}
	return nc, br
}

// frameBytes is one frame as it travels.
func frameBytes(typ byte, payload []byte) []byte {
	var b bytes.Buffer
	_ = WriteFrame(&b, typ, payload)
	return b.Bytes()
}

// ---- one syscall per frame ----

func TestFrameIsOneWrite(t *testing.T) {
	_, params, spies := startSpiedServer(t, nil)
	c, cli := dialSpied(t, params)
	srv := <-spies
	if _, err := c.Exec(background(), `CREATE TABLE nums (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(background(), `INSERT INTO nums VALUES (1), (2), (3)`); err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare(background(), `SELECT i FROM nums WHERE i >= ?`)
	if err != nil {
		t.Fatal(err)
	}

	type counts struct{ cliW, cliR, srvW, srvR int64 }
	during := func(op func()) counts {
		before := counts{cli.writes.Load(), cli.reads.Load(), srv.writes.Load(), srv.reads.Load()}
		op()
		return counts{cli.writes.Load() - before.cliW, cli.reads.Load() - before.cliR,
			srv.writes.Load() - before.srvW, srv.reads.Load() - before.srvR}
	}
	one := counts{1, 1, 1, 1}
	for i := 0; i < 3; i++ {
		got := during(func() {
			if _, tbl, err := st.Query(background(), int64(2)); err != nil || tbl.NumRows() != 2 {
				t.Fatalf("prepared round trip: %v %v", tbl, err)
			}
		})
		if got != one {
			t.Fatalf("prepared round trip %d made %+v writes/reads, want one of each on each side", i, got)
		}
		got = during(func() {
			if err := c.Ping(background()); err != nil {
				t.Fatal(err)
			}
		})
		if got != one {
			t.Fatalf("ping %d made %+v writes/reads, want one of each on each side", i, got)
		}
	}

	// Past singleWriteMax the header travels alone, both ways: the request
	// text and the string it asks back are each a byte over.
	big := strings.Repeat("x", singleWriteMax+1-len(`SELECT '' AS s`))
	got := during(func() {
		_, tbl, err := c.Query(background(), `SELECT '`+big+`' AS s`)
		if err != nil || tbl.NumRows() != 1 || tbl.Cols[0].Strs[0] != big {
			t.Fatalf("big round trip: %v", err)
		}
	})
	if got.cliW != 2 || got.srvW != 2 {
		t.Fatalf("a %d-byte request and its larger reply made %d and %d writes, want 2 and 2", singleWriteMax+1, got.cliW, got.srvW)
	}
}

// writeLog records the slices a frameWriter hands to its io.Writer.
type writeLog struct{ calls [][]byte }

func (w *writeLog) Write(p []byte) (int, error) {
	w.calls = append(w.calls, p)
	return len(p), nil
}

func TestLargeFrameIsTwoWritesAndNoCopy(t *testing.T) {
	var log writeLog
	fw := frameWriter{w: &log}
	atMax := make([]byte, singleWriteMax)
	if err := fw.writeFrame(MsgQuery, atMax); err != nil {
		t.Fatal(err)
	}
	if len(log.calls) != 1 || len(log.calls[0]) != 5+singleWriteMax {
		t.Fatalf("a %d-byte payload left in %d writes", singleWriteMax, len(log.calls))
	}

	log.calls = nil
	over := make([]byte, singleWriteMax+1)
	if err := fw.writeFrame(MsgQuery, over); err != nil {
		t.Fatal(err)
	}
	if len(log.calls) != 2 || len(log.calls[0]) != 5 || &log.calls[1][0] != &over[0] || len(log.calls[1]) != len(over) {
		t.Fatalf("a %d-byte payload must leave as its header, then the caller's own slice; got %d writes", len(over), len(log.calls))
	}
	typ, payload, err := ReadFrame(bytes.NewReader(append(append([]byte(nil), log.calls[0]...), log.calls[1]...)))
	if err != nil || typ != MsgQuery || len(payload) != len(over) {
		t.Fatalf("two-write frame does not read back: %d %d %v", typ, len(payload), err)
	}

	// Neither size allocates once the writer's buffer has grown: the small
	// frame is assembled in it, the large one borrows it for the header.
	fw.w = io.Discard
	for _, p := range [][]byte{atMax, over} {
		if n := testing.AllocsPerRun(20, func() { _ = fw.writeFrame(MsgQuery, p) }); n != 0 {
			t.Fatalf("writing a %d-byte payload allocates %v times per frame", len(p), n)
		}
	}
}

// ---- buffered reads: frames joined in a segment, frames cut into bytes ----

// scriptConn is the server a Client under test talks to: every Write (one
// frame — the client writes no frame in two pieces below singleWriteMax)
// releases the next step of canned reply bytes to the client's reader,
// whole, so that however many frames a step holds arrive in one Read, or
// with oneByte a byte per Read. With hangUp, a Read that finds nothing
// left to hand out reports io.EOF instead of waiting; with repeat, the last
// step answers every write from then on.
type scriptConn struct {
	net.Conn // never called: the Client uses only the methods below
	oneByte  bool
	hangUp   bool
	repeat   bool

	mu     sync.Mutex
	ready  *sync.Cond
	steps  [][]byte
	buf    []byte
	closed bool
}

func newScriptConn(oneByte bool, steps ...[]byte) *scriptConn {
	c := &scriptConn{oneByte: oneByte, steps: steps}
	c.ready = sync.NewCond(&c.mu)
	return c
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.steps) > 0 {
		// Read only copies out of buf, so an empty buf may alias the step:
		// a repeated step then costs the writer no allocation.
		if len(c.buf) == 0 {
			c.buf = c.steps[0]
		} else {
			c.buf = append(c.buf[:len(c.buf):len(c.buf)], c.steps[0]...)
		}
		if !c.repeat || len(c.steps) > 1 {
			c.steps = c.steps[1:]
		}
	}
	c.ready.Broadcast()
	return len(p), nil
}

// then queues one more step.
func (c *scriptConn) then(step []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.steps = append(c.steps, step)
}

// unread reports how many released bytes no Read has taken yet.
func (c *scriptConn) unread() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf)
}

func (c *scriptConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.buf) == 0 && !c.closed && !(c.hangUp && len(c.steps) == 0) {
		c.ready.Wait()
	}
	if len(c.buf) == 0 {
		return 0, io.EOF
	}
	if c.oneByte {
		p = p[:1]
	}
	n := copy(p, c.buf)
	c.buf = c.buf[n:]
	return n, nil
}

func (c *scriptConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.ready.Broadcast()
	return nil
}

func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

func join(frames ...[]byte) []byte { return bytes.Join(frames, nil) }

func TestBufferedReaderSplitsAndJoins(t *testing.T) {
	tbl := sampleTable()
	wantTable := storage.EncodeTable(nil, tbl)
	stopped := DebugEventMsg{Kind: DebugEventStopped, Reason: "breakpoint", Line: 3, Func: "f"}

	for _, oneByte := range []bool{false, true} {
		name := "joined"
		if oneByte {
			name = "byte-at-a-time"
		}
		t.Run("client/"+name, func(t *testing.T) {
			c := scriptedClient(t, newScriptConn(oneByte,
				authOK(),
				// a streamed result, all of it behind the query in one segment
				join(frameBytes(MsgResultChunk, EncodeResultChunk(tbl.SliceRows(0, 2))),
					frameBytes(MsgResultChunk, EncodeResultChunk(tbl.SliceRows(2, 3))),
					frameBytes(MsgResultEnd, EncodeResultEnd("SELECT 3", 3))),
				frameBytes(MsgPong, nil),
				// debug mode: a reply with an event on its heels, then an
				// event ahead of a reply
				join(frameBytes(MsgDebugReply, EncodeDebugReply(DebugReply{Seq: 1, Success: true})),
					frameBytes(MsgDebugEvent, EncodeDebugEvent(stopped))),
				join(frameBytes(MsgDebugEvent, EncodeDebugEvent(stopped)),
					frameBytes(MsgDebugReply, EncodeDebugReply(DebugReply{Seq: 2, Success: true, Value: "3"}))),
			))
			msg, got, err := c.Query(background(), `SELECT * FROM t`)
			if err != nil || msg != "SELECT 3" || !bytes.Equal(storage.EncodeTable(nil, got), wantTable) {
				t.Fatalf("streamed result: %q %v", msg, err)
			}
			if err := c.Ping(background()); err != nil {
				t.Fatal(err)
			}
			dc, err := c.Debug()
			if err != nil {
				t.Fatal(err)
			}
			defer dc.Close()
			ctx := ctxSec(t)
			if rep, err := dc.RoundTrip(ctx, DebugRequest{Command: DebugCmdPause}); err != nil || rep.Seq != 1 {
				t.Fatalf("debug reply: %+v %v", rep, err)
			}
			if ev, err := dc.WaitEvent(ctx); err != nil || ev != stopped {
				t.Fatalf("debug event behind the reply: %+v %v", ev, err)
			}
			if rep, err := dc.RoundTrip(ctx, DebugRequest{Command: DebugCmdEval, Expr: "i"}); err != nil || rep.Seq != 2 || rep.Value != "3" {
				t.Fatalf("reply behind an event: %+v %v", rep, err)
			}
			if ev, err := dc.WaitEvent(ctx); err != nil || ev != stopped {
				t.Fatalf("debug event ahead of the reply: %+v %v", ev, err)
			}
		})

		t.Run("server/"+name, func(t *testing.T) {
			_, params, _ := startSpiedServer(t, func(spy *spyConn) {
				if oneByte {
					spy.read = iotest.OneByteReader(spy.Conn)
				}
			})
			nc, br := rawSession(t, params)
			// Three requests in one segment: the first read hands the server
			// all of them (or, byte at a time, none of them whole).
			if _, err := nc.Write(join(frameBytes(MsgPing, nil),
				frameBytes(MsgQuery, []byte(`SELECT 7 AS n`)),
				frameBytes(MsgClose, nil))); err != nil {
				t.Fatal(err)
			}
			if typ, _, err := ReadFrame(br); err != nil || typ != MsgPong {
				t.Fatalf("pong: %d %v", typ, err)
			}
			typ, payload, err := ReadFrame(br)
			if err != nil || typ != MsgResult {
				t.Fatalf("result: %d %v", typ, err)
			}
			if _, got, err := DecodeResult(payload); err != nil || got.NumRows() != 1 || got.Cols[0].Ints[0] != 7 {
				t.Fatalf("result: %v %v", got, err)
			}
			if typ, _, err := ReadFrame(br); err != nil || typ != MsgGoodbye {
				t.Fatalf("goodbye: %d %v", typ, err)
			}
			if _, _, err := ReadFrame(br); err != io.EOF {
				t.Fatalf("after the goodbye: %v, want EOF", err)
			}
		})
	}
}

// ---- drain ----

// TestDrainAnswersBufferedFrames holds the frame loop inside its pong write
// with two statements already read into its buffer behind the ping, fires
// the drain, and only then lets the pong go. The statements were read
// before the drain, so they are owed answers — real ones: the deadline that
// stops the reader is not a dead client, and must not fire the interrupt
// that would abort them.
func TestDrainAnswersBufferedFrames(t *testing.T) {
	pongHeld := make(chan struct{})
	releasePong := make(chan struct{})
	kicked := make(chan struct{})
	srv, params, _ := startSpiedServer(t, func(spy *spyConn) {
		var held, kickedOnce sync.Once
		spy.beforeWrite = func(p []byte) {
			if len(p) == 5 && p[4] == MsgPong {
				held.Do(func() {
					close(pongHeld)
					<-releasePong
				})
			}
		}
		spy.onReadDeadline = func() { kickedOnce.Do(func() { close(kicked) }) }
	})
	nc, br := rawSession(t, params)
	if _, err := nc.Write(join(frameBytes(MsgPing, nil),
		frameBytes(MsgQuery, []byte(`SELECT 1 AS n`)),
		frameBytes(MsgQuery, []byte(`SELECT 2 AS n`)))); err != nil {
		t.Fatal(err)
	}
	<-pongHeld
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	<-kicked
	close(releasePong)

	if typ, _, err := ReadFrame(br); err != nil || typ != MsgPong {
		t.Fatalf("pong: %d %v", typ, err)
	}
	for want := int64(1); want <= 2; want++ {
		typ, payload, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("statement %d, read before the drain, went unanswered: %v", want, err)
		}
		if typ != MsgResult {
			t.Fatalf("statement %d: frame %d (%v), want its result — did the drain fire the interrupt?", want, typ, DecodeError(payload))
		}
		if _, tbl, err := DecodeResult(payload); err != nil || tbl.Cols[0].Ints[0] != want {
			t.Fatalf("statement %d: %v %v", want, tbl, err)
		}
	}
	if typ, _, err := ReadFrame(br); err != nil || typ != MsgGoodbye {
		t.Fatalf("after the answers: %d %v, want the goodbye", typ, err)
	}
	if _, _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("after the goodbye: %v, want EOF", err)
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the drained session ended")
	}
}

// TestServerLiteralDrains serves from a Server built without NewServer: it
// must accept, answer and drain like any other.
func TestServerLiteralDrains(t *testing.T) {
	db := engine.NewDB()
	db.FS = core.NewMemFS(nil)
	srv := &Server{Database: "demo", Users: map[string]string{"monetdb": "secret"}, DB: db}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	host, port, _ := splitHostPort(addr)
	_, br := rawSession(t, ConnParams{Host: host, Port: port, Database: "demo", User: "monetdb", Password: "secret"})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := ReadFrame(br); err != nil || typ != MsgGoodbye {
		t.Fatalf("drain of a literal Server: %d %v, want the goodbye", typ, err)
	}
}

// ---- chaos: every frame cut in two ----

// TestChaosPartialWritesEveryFrame is the chaos plan's PartialWriteProb
// turned up to certainty, alone: every server Write — now a whole frame,
// header included — is cut at a seeded offset into two socket writes a
// millisecond apart, so replies reach the client's buffered reader split
// inside the header as often as inside the body.
func TestChaosPartialWritesEveryFrame(t *testing.T) {
	db := engine.NewDB()
	db.FS = core.NewMemFS(nil)
	srv := NewServer("demo", "monetdb", "secret", db)
	srv.StreamThreshold = 8 << 10
	srv.ChunkBytes = 4 << 10
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.ServeListener(faultnet.Listener(ln, faultnet.Plan{Seed: 19, PartialWriteProb: 1}))
	t.Cleanup(func() { srv.Close() })
	host, port, _ := splitHostPort(addr)
	c, err := DialContext(background(), ConnParams{Host: host, Port: port, Database: "demo", User: "monetdb", Password: "secret"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(background(), `CREATE TABLE t (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
	const rows = 3000 // 24 kB encoded: a stream of half a dozen chunks
	var b strings.Builder
	b.WriteString(`INSERT INTO t VALUES (0)`)
	for i := 1; i < rows; i++ {
		fmt.Fprintf(&b, ", (%d)", i)
	}
	if _, err := c.Exec(background(), b.String()); err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare(background(), `SELECT i FROM t WHERE i = ?`)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if _, tbl, err := st.Query(background(), i); err != nil || tbl.NumRows() != 1 || tbl.Cols[0].Ints[0] != i {
			t.Fatalf("prepared %d through split frames: %v %v", i, tbl, err)
		}
		if err := c.Ping(background()); err != nil {
			t.Fatal(err)
		}
	}
	r, err := c.QueryStream(background(), `SELECT i FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	var got, sum int64
	for r.Next() {
		for _, v := range r.Batch().Cols[0].Ints {
			got++
			sum += v
		}
	}
	if err := r.Close(); err != nil || !r.Streaming() || got != rows || sum != rows*(rows-1)/2 {
		t.Fatalf("stream through split frames: %d rows, sum %d, streaming %v, %v", got, sum, r.Streaming(), err)
	}
}

// ---- the reader reserves what arrives, not what the header claims ----

func TestReadFrameReservesWhatArrives(t *testing.T) {
	// A header alone, claiming the cap.
	hdr := binary.BigEndian.AppendUint32(nil, maxFrame)
	var err error
	got := allocatedBy(func() { _, _, err = ReadFrame(bytes.NewReader(hdr)) })
	if core.KindOf(err) != core.KindIO {
		t.Fatalf("header-only frame: %v, want an IO error", err)
	}
	if got > bodyStep+allocSlack {
		t.Fatalf("a 4-byte header claiming %d bytes made the reader allocate %d", maxFrame, got)
	}

	// The claim honoured in part: what is held stays within four times what
	// came, plus the first step.
	const sent = 3 << 20
	part := append(hdr, make([]byte, sent)...)
	got = allocatedBy(func() { _, _, err = ReadFrame(bytes.NewReader(part)) })
	if core.KindOf(err) != core.KindIO {
		t.Fatalf("truncated frame: %v, want an IO error", err)
	}
	if limit := uint64(bodyStep + 4*bodyStep + allocSlack); got > limit {
		t.Fatalf("%d body bytes of a claimed %d made the reader allocate %d (limit %d)", sent, maxFrame, got, limit)
	}

	// And a frame that does arrive whole, through every growth step, is the
	// frame that was sent.
	payload := make([]byte, 5<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	typ, back, err := ReadFrame(bufio.NewReader(bytes.NewReader(frameBytes(MsgResultChunk, payload))))
	if err != nil || typ != MsgResultChunk || !bytes.Equal(back, payload) {
		t.Fatalf("5 MiB frame: type %d, %d bytes, %v", typ, len(back), err)
	}
}

// ---- cancellation without a watchdog goroutine ----

// TestPingWithDeadlineStartsNoGoroutine counts goroutines at the moment the
// server writes its pong — the client is then parked in its read with
// whatever watches its context armed — for a ping under a context that
// cannot be cancelled and for one under a deadline. The counts are equal:
// arming the deadline starts nothing.
func TestPingWithDeadlineStartsNoGoroutine(t *testing.T) {
	var atPong atomic.Int64
	_, params, _ := startSpiedServer(t, func(spy *spyConn) {
		spy.beforeWrite = func(p []byte) {
			if len(p) == 5 && p[4] == MsgPong {
				atPong.Store(int64(runtime.NumGoroutine()))
			}
		}
	})
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ping := func(ctx context.Context) int64 {
		t.Helper()
		if err := c.Ping(ctx); err != nil {
			t.Fatal(err)
		}
		return atPong.Load()
	}
	// A goroutine left by an earlier test may exit between the two samples
	// of a round; a watchdog would show in every round.
	const rounds = 5
	var more int
	for i := 0; i < rounds; i++ {
		bare := ping(background())
		ctx, cancel := context.WithTimeout(background(), time.Minute)
		armed := ping(ctx)
		cancel()
		if armed > bare {
			t.Logf("round %d: %d goroutines during a ping under a deadline, %d without one", i, armed, bare)
			more++
		}
	}
	if more == rounds {
		t.Fatal("every ping under a deadline ran beside more goroutines than one without: something is started per call")
	}

	// What arming costs instead is a handful of small allocations: the
	// AfterFunc registration, its stop function and the channel stop waits
	// on. (The context itself is made outside the measured call.)
	ctx, cancel := context.WithTimeout(background(), time.Minute)
	defer cancel()
	bareAllocs := testing.AllocsPerRun(50, func() { _ = c.Ping(background()) })
	armedAllocs := testing.AllocsPerRun(50, func() { _ = c.Ping(ctx) })
	extra := armedAllocs - bareAllocs
	t.Logf("a deadline adds %v allocations to a ping", extra)
	if extra > 6 {
		t.Fatalf("a deadline adds %v allocations to a ping (%v against %v)", extra, armedAllocs, bareAllocs)
	}
}

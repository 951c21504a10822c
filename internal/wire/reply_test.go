package wire

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// The tests below drive the client's two request shapes — start, whose
// reply is a result read by Rows, and call, whose reply is one frame read
// by the reply rule — and the debug demux, against scripted replies.

// authOK is the handshake reply every scripted client opens with.
func authOK() []byte { return frameBytes(MsgAuthOK, EncodeAuthOK("script/2.0", ProtoV2)) }

// scriptedClient authenticates a Client over nc, whose first step must
// begin with authOK(). nc closes when the test ends.
func scriptedClient(t testing.TB, nc *scriptConn) *Client {
	t.Helper()
	t.Cleanup(func() { nc.Close() })
	c, err := newClient(background(), nc, ConnParams{Database: "demo"})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStreamEndCountMustMatchItsChunks: the end frame's row count is the
// server's cross-check of its stream. Chunks that carried 3 rows under an
// end frame that says 99 mean frames went missing on the way; the client
// must refuse the stream, not hand out a short result on a connection it
// keeps reusing.
func TestStreamEndCountMustMatchItsChunks(t *testing.T) {
	nc := newScriptConn(false, authOK(), join(
		frameBytes(MsgResultChunk, EncodeResultChunk(sampleTable())),
		frameBytes(MsgResultEnd, EncodeResultEnd("SELECT 99", 99))))
	nc.hangUp = true
	c := scriptedClient(t, nc)
	defer c.Close()
	_, tbl, err := c.Query(background(), `SELECT * FROM t`)
	if core.KindOf(err) != core.KindProtocol || !c.Broken() {
		n := 0
		if tbl != nil {
			n = tbl.NumRows()
		}
		t.Fatalf("3 rows under an end frame that says 99: got %d rows and error %v, connection broken %v; want a protocol error and a broken connection",
			n, err, c.Broken())
	}
}

// TestServerProtocolErrorLeavesTheConnectionInSync: the server reports
// some request errors as protocol errors — a MsgExecStmt whose bind payload
// does not decode — and the session goes on serving. The MsgErr that carries
// one is a reply like any other, so the same Client runs the next statement.
func TestServerProtocolErrorLeavesTheConnectionInSync(t *testing.T) {
	_, params := startTestServer(t)
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sql := range []string{
		`CREATE TABLE numbers (i INTEGER)`,
		`INSERT INTO numbers VALUES (1), (2), (3)`,
	} {
		if _, err := c.Exec(background(), sql); err != nil {
			t.Fatal(err)
		}
	}
	// a well-formed statement id and argument table, then a byte too many
	_, err = c.start(background(), MsgExecStmt, append(EncodeExecStmt(1, nil), 0))
	if core.KindOf(err) != core.KindProtocol || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("an exec-stmt payload that does not decode: %v, want the server's protocol error", err)
	}
	if c.Broken() {
		t.Fatalf("the server's %v left the connection broken", err)
	}
	if _, tbl, err := c.Query(background(), `SELECT COUNT(*) AS n FROM numbers`); err != nil || tbl.Cols[0].Ints[0] != 3 {
		t.Fatalf("the next statement on the same Client: %v", err)
	}
}

// TestClientRequestAllocations pins what a request costs the client in
// allocations, over a connection that answers every write with the same
// canned reply and allocates nothing itself. The ceilings are what each
// request cost when it had its own prologue and reply reader; a request
// that allocates more is a regression on the path of every statement.
func TestClientRequestAllocations(t *testing.T) {
	cancellable, cancel := context.WithCancel(background())
	defer cancel()
	result := frameBytes(MsgResult, EncodeResult("SELECT 3", sampleTable()))
	for _, tc := range []struct {
		name        string
		reply       []byte
		run         func(c *Client, ctx context.Context) error
		bare, armed float64 // ceilings under context.Background and a cancellable context
	}{
		{"Client.Query", result, func(c *Client, ctx context.Context) error {
			_, _, err := c.Query(ctx, `SELECT * FROM t`)
			return err
		}, 30, 35},
		{"Stmt.Query", result, func(c *Client, ctx context.Context) error {
			_, _, err := (&Stmt{c: c, id: 1, nparams: 3}).Query(ctx, int64(1), 2.5, "x")
			return err
		}, 41, 46},
		{"Ping", frameBytes(MsgPong, nil), func(c *Client, ctx context.Context) error {
			return c.Ping(ctx)
		}, 2, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nc := newScriptConn(false, authOK(), tc.reply)
			nc.repeat = true
			c := scriptedClient(t, nc)
			for _, k := range []struct {
				what    string
				ctx     context.Context
				ceiling float64
			}{{"context.Background()", background(), tc.bare}, {"a cancellable context", cancellable, tc.armed}} {
				got := testing.AllocsPerRun(200, func() {
					if err := tc.run(c, k.ctx); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("%s under %s: %v allocations", tc.name, k.what, got)
				if got > k.ceiling {
					t.Errorf("%s under %s allocates %v times, ceiling %v", tc.name, k.what, got, k.ceiling)
				}
			}
		})
	}
}

// TestDebugConnClosesWithEventsUnread: the demux hands events to a buffer
// of 64. A 65th that nobody waits for blocks it, and Close, which waits for
// the demux to stop, must not wait on that forever.
func TestDebugConnClosesWithEventsUnread(t *testing.T) {
	ev := frameBytes(MsgDebugEvent, EncodeDebugEvent(DebugEventMsg{Kind: DebugEventStopped, Reason: "pause", Line: 1, Func: "f"}))
	nc := newScriptConn(false, join(authOK(), bytes.Repeat(ev, 65)))
	dc, err := scriptedClient(t, nc).Debug()
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- dc.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close still waits for a demux blocked on an event nobody reads")
	}
}

// carried is the result the frames at the head of reply carry, assembled as
// a client that trusts them would: a one-shot table, or the chunks ahead of
// the first frame that is neither.
func carried(reply []byte) *storage.Table {
	frames, _ := framesOf(bytes.NewReader(reply))
	var out *storage.Table
	for _, f := range frames {
		switch f[0] {
		case MsgResult:
			_, t, _ := DecodeResult(f[1:])
			return t
		case MsgResultChunk:
			t, err := DecodeResultChunk(f[1:])
			if err != nil {
				return out
			}
			if out == nil {
				out = t
			} else if out.AppendTable(t) != nil {
				return out
			}
		default:
			return out
		}
	}
	return out
}

// sameRows reports whether two results hold the same rows (nil is no table).
func sameRows(a, b *storage.Table) bool {
	if a == nil || b == nil {
		return a == b
	}
	return bytes.Equal(storage.EncodeTable(nil, a), storage.EncodeTable(nil, b))
}

// requestShapes is every request the client makes, by shape: the two that
// start a result and the three answered by one frame.
var requestShapes = []struct {
	name string
	run  func(c *Client) (result *storage.Table, isQuery bool, err error)
}{
	{"Query", func(c *Client) (*storage.Table, bool, error) {
		_, tbl, err := c.Query(background(), `SELECT * FROM t`)
		return tbl, true, err
	}},
	{"Stmt.Query", func(c *Client) (*storage.Table, bool, error) {
		_, tbl, err := (&Stmt{c: c, id: 1}).Query(background())
		return tbl, true, err
	}},
	{"Prepare", func(c *Client) (*storage.Table, bool, error) {
		_, err := c.Prepare(background(), `SELECT 1`)
		return nil, false, err
	}},
	{"Ping", func(c *Client) (*storage.Table, bool, error) {
		return nil, false, c.Ping(background())
	}},
	{"Stmt.Close", func(c *Client) (*storage.Table, bool, error) {
		return nil, false, (&Stmt{c: c, id: 1}).Close(background())
	}},
}

// refusedByClient reports whether err is a protocol error the client raised
// itself, rather than one the server reported in a MsgErr frame.
func refusedByClient(err error) bool {
	return core.KindOf(err) == core.KindProtocol && !errors.As(err, new(remoteError))
}

// FuzzClientReplies hands arbitrary reply bytes, after a well-formed
// handshake, to every request shape — Query, Stmt.Query, Prepare, Ping,
// Stmt.Close — and to the debug demux through RoundTrip and WaitEvent. The
// script hangs up once its bytes are read, so a reader that wants more gets
// EOF. The invariants:
//   - no panic and no hang;
//   - a protocol error the client raises leaves the connection broken (one
//     the server reports does not: the server hangs up after refusing the
//     byte stream itself);
//   - a query that succeeds returns exactly the rows its frames carried;
//   - a connection left unbroken, having read every byte it was sent,
//     answers one more well-formed exchange correctly. (Bytes left unread
//     are a second reply to one request; the client cannot tell them from
//     the answer to its next one until it reads them.)
func FuzzClientReplies(f *testing.F) {
	payloads := replyPayloads()
	for _, m := range msgConstants(f) {
		if !m.toServer() {
			f.Add(frameBytes(m.typ, payloads[m.name]))
		}
	}
	tbl := sampleTable()
	chunk := func(lo, hi int) []byte { return frameBytes(MsgResultChunk, EncodeResultChunk(tbl.SliceRows(lo, hi))) }
	end := func(n int64) []byte { return frameBytes(MsgResultEnd, EncodeResultEnd("SELECT 3", n)) }
	errFrame := frameBytes(MsgErr, EncodeError(core.KindName, "no such table"))
	for _, seed := range [][]byte{
		join(chunk(0, 2), chunk(2, 3), end(3)),
		join(chunk(0, 3), end(99)),
		join(chunk(0, 1), errFrame),
		join(chunk(0, 1), frameBytes(MsgResult, payloads["MsgResult"]), end(1)),
		join(chunk(0, 0), end(0)),
		frameBytes(MsgErr, EncodeError(core.KindProtocol, "unexpected message type")),
		join(frameBytes(MsgDebugEvent, payloads["MsgDebugEvent"]),
			frameBytes(MsgDebugReply, EncodeDebugReply(DebugReply{Seq: 1, Success: true}))),
		join(frameBytes(MsgPong, nil), frameBytes(MsgPong, nil)),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, reply []byte) {
		for _, shape := range requestShapes {
			nc := newScriptConn(false, authOK(), reply)
			nc.hangUp = true
			c := scriptedClient(t, nc)
			got, isQuery, err := shape.run(c)
			if refusedByClient(err) && !c.Broken() {
				t.Fatalf("%s: protocol error %v on a connection not marked broken", shape.name, err)
			}
			if isQuery && err == nil && !sameRows(got, carried(reply)) {
				t.Fatalf("%s: the result is not the rows its frames carried", shape.name)
			}
			if !c.Broken() && nc.unread() == 0 && c.br.Buffered() == 0 {
				nc.then(frameBytes(MsgPong, nil))
				if perr := c.Ping(background()); perr != nil {
					t.Fatalf("%s: the connection was left in sync (%v), yet the next ping fails: %v", shape.name, err, perr)
				}
			}
			c.Close()
		}
		fuzzDebugDemux(t, reply)
	})
}

// fuzzDebugDemux answers one debug request with reply and checks the demux
// against what a reader of the same frames expects: it delivers every
// event and replies until the first frame that is not debug traffic or
// does not decode, and the request's answer is the first reply with its seq.
func fuzzDebugDemux(t *testing.T, reply []byte) {
	var wantEvents int
	var want *DebugReply
	frames, _ := framesOf(bytes.NewReader(reply))
frames:
	for _, f := range frames {
		switch f[0] {
		case MsgDebugEvent:
			if _, err := DecodeDebugEvent(f[1:]); err != nil {
				break frames
			}
			wantEvents++
		case MsgDebugReply:
			rep, err := DecodeDebugReply(f[1:])
			if err != nil {
				break frames
			}
			if rep.Seq == 1 && want == nil {
				want = &rep
			}
		default:
			break frames
		}
	}

	nc := newScriptConn(false, authOK(), reply)
	nc.hangUp = true
	c := scriptedClient(t, nc)
	dc, err := c.Debug()
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	events := make(chan int, 1)
	go func() {
		n := 0
		for {
			if _, err := dc.WaitEvent(background()); err != nil {
				if core.KindOf(err) == core.KindProtocol && !c.Broken() {
					t.Errorf("debug demux: protocol error %v on a connection not marked broken", err)
				}
				events <- n
				return
			}
			n++
		}
	}()
	rep, err := dc.RoundTrip(background(), DebugRequest{Command: DebugCmdPause})
	gotEvents := <-events // the demux has stopped: the script ends in EOF
	switch {
	case core.KindOf(err) == core.KindProtocol && !c.Broken():
		t.Fatalf("debug demux: protocol error %v on a connection not marked broken", err)
	case gotEvents != wantEvents:
		t.Fatalf("debug demux delivered %d events, its frames carried %d", gotEvents, wantEvents)
	case want == nil && (err == nil || rep.Seq != 0):
		t.Fatalf("debug demux answered a request no frame answered: %+v %v", rep, err)
	case want != nil && (rep.Seq != 1 || rep.Success != want.Success || (err == nil) != want.Success):
		t.Fatalf("debug demux answered %+v %v, its frames said %+v", rep, err, *want)
	}
}

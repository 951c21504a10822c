package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
)

func background() context.Context { return context.Background() }

// ---- frame / payload edge cases ----

func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgResult, make([]byte, maxFrame)); err == nil {
		t.Fatal("oversized payload should be rejected before hitting the wire")
	}
	if buf.Len() != 0 {
		t.Fatal("no partial frame may be written")
	}
}

func TestAuthVersionNegotiationPayloads(t *testing.T) {
	full := EncodeAuth("u", "p", "db", ProtoV2)
	u, p, d, v, err := DecodeAuth(full)
	if err != nil || u != "u" || p != "p" || d != "db" || v != ProtoV2 {
		t.Fatalf("v2 auth: %q %q %q v%d %v", u, p, d, v, err)
	}
	// A pre-negotiation client sends no version byte: it decodes, as
	// version 0, so the handshake can refuse it by name.
	_, _, _, v, err = DecodeAuth(full[:len(full)-1])
	if err != nil || v != 0 {
		t.Fatalf("version-less auth: v%d %v", v, err)
	}
	// trailing junk after the version byte is a protocol error
	bad := append(EncodeAuth("u", "p", "db", ProtoV2), 0xFF)
	if _, _, _, _, err := DecodeAuth(bad); err == nil {
		t.Fatal("trailing auth bytes should fail")
	}
	banner, v, err := DecodeAuthOK(EncodeAuthOK("srv/2.0", ProtoV2))
	if err != nil || banner != "srv/2.0" || v != ProtoV2 {
		t.Fatalf("authok: %q v%d %v", banner, v, err)
	}
}

func TestResultChunkRoundTrip(t *testing.T) {
	tbl := sampleTable()
	back, err := DecodeResultChunk(EncodeResultChunk(tbl))
	if err != nil || back.NumRows() != tbl.NumRows() || len(back.Cols) != len(tbl.Cols) {
		t.Fatalf("%v shape %v", err, back)
	}
	if _, err := DecodeResultChunk(append(EncodeResultChunk(tbl), 1)); err == nil {
		t.Fatal("trailing chunk bytes should fail")
	}
	msg, rows, err := DecodeResultEnd(EncodeResultEnd("SELECT 3", 3))
	if err != nil || msg != "SELECT 3" || rows != 3 {
		t.Fatalf("%q %d %v", msg, rows, err)
	}
	if _, _, err := DecodeResultEnd([]byte{0, 0}); err == nil {
		t.Fatal("truncated end frame should fail")
	}
}

func TestWriteResultStreamChunksAndReassembles(t *testing.T) {
	tbl := storage.NewTable("result", storage.Schema{{Name: "i", Type: storage.TInt}})
	for i := 0; i < 10_000; i++ {
		_ = tbl.AppendRow([]any{int64(i)})
	}
	var buf bytes.Buffer
	// tiny chunk budget to force many chunks
	if err := WriteResultStream(&buf, "SELECT 10000", tbl, 1<<10); err != nil {
		t.Fatal(err)
	}
	var got *storage.Table
	chunks := 0
	for {
		typ, payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ == MsgResultEnd {
			msg, n, err := DecodeResultEnd(payload)
			if err != nil || msg != "SELECT 10000" || n != 10_000 {
				t.Fatalf("%q %d %v", msg, n, err)
			}
			break
		}
		batch, err := DecodeResultChunk(payload)
		if err != nil {
			t.Fatal(err)
		}
		chunks++
		if got == nil {
			got = batch
		} else if err := got.AppendTable(batch); err != nil {
			t.Fatal(err)
		}
	}
	if chunks < 10 {
		t.Fatalf("expected many chunks, got %d", chunks)
	}
	if got.NumRows() != 10_000 {
		t.Fatalf("rows: %d", got.NumRows())
	}
	for i, v := range got.Cols[0].Ints {
		if v != int64(i) {
			t.Fatalf("row %d: %d", i, v)
		}
	}
}

// ---- context cancellation ----

// silentServer accepts one connection, completes the handshake, then goes
// quiet: queries are read but never answered. It isolates client-side
// cancellation from engine timing.
func silentServer(t *testing.T) ConnParams {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				if typ, _, err := ReadFrame(nc); err != nil || typ != MsgAuth {
					return
				}
				_ = WriteFrame(nc, MsgAuthOK, EncodeAuthOK("silent/2.0", ProtoV2))
				for {
					if _, _, err := ReadFrame(nc); err != nil {
						return
					}
					// never reply
				}
			}(nc)
		}
	}()
	host, port, _ := splitHostPort(ln.Addr().String())
	return ConnParams{Host: host, Port: port, Database: "demo", User: "u", Password: "p"}
}

func TestQueryCancellationAbortsInFlight(t *testing.T) {
	params := silentServer(t)
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err = c.Query(ctx, `SELECT 1`)
	if err == nil {
		t.Fatal("cancelled query must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error must wrap context.Canceled, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancellation took %v", time.Since(start))
	}
	if !c.Broken() {
		t.Fatal("a cancelled in-flight query must poison the connection")
	}
	if _, _, err := c.Query(background(), `SELECT 1`); err == nil {
		t.Fatal("broken connection must refuse further queries")
	}
}

func TestDialContextHonorsCancelledContext(t *testing.T) {
	_, params := startTestServer(t)
	ctx, cancel := context.WithCancel(background())
	cancel()
	if _, err := DialContext(ctx, params); err == nil {
		t.Fatal("dial with cancelled context must fail")
	}
}

// ---- protocol version refusal ----

// TestPreV2HandshakeRefused speaks the handshake on a raw socket the way a
// protocol v1 client did — once with version byte 1, once with no version
// byte at all. Each gets a typed protocol error and a closed connection,
// and the server goes on serving v2 clients.
func TestPreV2HandshakeRefused(t *testing.T) {
	_, params := startTestServer(t)
	v1 := EncodeAuth(params.User, params.Password, params.Database, 1)
	for name, auth := range map[string][]byte{
		"version byte 1":  v1,
		"no version byte": v1[:len(v1)-1],
	} {
		nc, err := net.Dial("tcp", params.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
		if err := WriteFrame(nc, MsgAuth, auth); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := ReadFrame(nc)
		if err != nil || typ != MsgErr {
			t.Fatalf("%s: reply type %d, %v; want MsgErr", name, typ, err)
		}
		if derr := DecodeError(payload); core.KindOf(derr) != core.KindProtocol {
			t.Fatalf("%s: want a protocol error, got %v", name, derr)
		}
		if _, _, err := ReadFrame(nc); err != io.EOF {
			t.Fatalf("%s: connection must be closed after the refusal, read gave %v", name, err)
		}
		nc.Close()

		c, err := DialContext(background(), params)
		if err != nil {
			t.Fatalf("%s: v2 dial after the refusal: %v", name, err)
		}
		if _, tbl, err := c.Query(background(), `SELECT 1 AS one`); err != nil || tbl.NumRows() != 1 {
			t.Fatalf("%s: v2 query after the refusal: %v %v", name, tbl, err)
		}
		c.Close()
	}
}

// TestHandshakeRefusesOversizedAuthFrame: four bytes from a peer that has
// proved nothing must not make the server reserve the 64 MiB they claim and
// wait for it. The client sends only a frame header announcing maxFrame
// bytes; the server answers with a typed protocol error straight from the
// header and hangs up — on the normal handshake and on the over-MaxConns
// refusal path alike.
func TestHandshakeRefusesOversizedAuthFrame(t *testing.T) {
	for name, maxConns := range map[string]int{"handshake": 0, "over MaxConns": 1} {
		t.Run(name, func(t *testing.T) {
			_, params := startConfiguredServer(t, func(s *Server) { s.MaxConns = maxConns })
			if maxConns > 0 {
				held, err := DialContext(background(), params)
				if err != nil {
					t.Fatal(err)
				}
				defer held.Close()
			}
			nc, err := net.Dial("tcp", params.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := nc.Write(binary.BigEndian.AppendUint32(nil, maxFrame)); err != nil {
				t.Fatal(err)
			}
			typ, payload, err := ReadFrame(nc)
			if err != nil || typ != MsgErr {
				t.Fatalf("reply type %d, %v; want MsgErr without the body being sent", typ, err)
			}
			if derr := DecodeError(payload); core.KindOf(derr) != core.KindProtocol {
				t.Fatalf("want a protocol error, got %v", derr)
			}
			if _, _, err := ReadFrame(nc); err != io.EOF {
				t.Fatalf("connection must be closed after the refusal, read gave %v", err)
			}
		})
	}
}

// TestClientRefusesPreV2Server: a MsgAuthOK that negotiates anything below
// v2 — or carries no version — fails the dial with a protocol error.
func TestClientRefusesPreV2Server(t *testing.T) {
	for name, authOK := range map[string][]byte{
		"version byte 1":  EncodeAuthOK("old/1.0", 1),
		"no version byte": appendString(nil, "older/0.9"),
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close()
			if _, _, err := ReadFrame(nc); err == nil {
				_ = WriteFrame(nc, MsgAuthOK, authOK)
			}
		}()
		host, port, _ := splitHostPort(ln.Addr().String())
		_, err = DialContext(background(), ConnParams{Host: host, Port: port, Database: "demo", User: "u", Password: "p"})
		if core.KindOf(err) != core.KindProtocol {
			t.Fatalf("%s: want a protocol error from the dial, got %v", name, err)
		}
		ln.Close()
	}
}

// ---- streaming end to end ----

// TestStreamingBeyondFrameCap round-trips a result set larger than the
// 64 MiB frame cap through the chunked path — impossible in one frame.
func TestStreamingBeyondFrameCap(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates ~200 MiB")
	}
	db := engine.NewDB()
	db.FS = core.NewMemFS(nil)
	big := storage.NewTable("big", storage.Schema{{Name: "payload", Type: storage.TBlob}})
	blob := make([]byte, 16<<20)
	for i := range blob {
		blob[i] = byte(i)
	}
	const rows = 5 // 5 × 16 MiB = 80 MiB > 64 MiB frame cap
	for i := 0; i < rows; i++ {
		_ = big.AppendRow([]any{blob})
	}
	if err := db.RegisterTable(big); err != nil {
		t.Fatal(err)
	}
	srv := NewServer("demo", "monetdb", "secret", db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	host, port, _ := splitHostPort(addr)
	params := ConnParams{Host: host, Port: port, Database: "demo", User: "monetdb", Password: "secret"}

	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rowsIter, err := c.QueryStream(background(), `SELECT payload FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	got, batches := 0, 0
	for rowsIter.Next() {
		b := rowsIter.Batch()
		col, err := b.Column("payload")
		if err != nil {
			t.Fatal(err)
		}
		for _, bl := range col.Blobs {
			if len(bl) != len(blob) || bl[0] != blob[0] || bl[len(bl)-1] != blob[len(blob)-1] {
				t.Fatal("blob corrupted in transit")
			}
			got++
		}
		batches++
	}
	if err := rowsIter.Err(); err != nil {
		t.Fatal(err)
	}
	if got != rows {
		t.Fatalf("rows: %d", got)
	}
	if batches < 2 {
		t.Fatalf("expected a multi-chunk stream, got %d batches", batches)
	}
	if !rowsIter.Streaming() {
		t.Fatal("result should have travelled the chunked path")
	}
	if rowsIter.TotalRows() != rows {
		t.Fatalf("total rows: %d", rowsIter.TotalRows())
	}
}

func TestQueryStreamSmallResultOneShot(t *testing.T) {
	_, params := startTestServer(t)
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Query(background(), `CREATE TABLE t (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(background(), `INSERT INTO t VALUES (7)`); err != nil {
		t.Fatal(err)
	}
	rows, err := c.QueryStream(background(), `SELECT i FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Streaming() {
		t.Fatal("small result should use the one-shot path")
	}
	msg, tbl, err := rows.ReadAll()
	if err != nil || tbl.Cols[0].Ints[0] != 7 || msg == "" {
		t.Fatalf("%q %v %v", msg, tbl, err)
	}
	// connection stays usable after a drained stream
	if _, _, err := c.Query(background(), `SELECT i FROM t`); err != nil {
		t.Fatal(err)
	}
}

func TestStreamedEmptyResultKeepsSchema(t *testing.T) {
	srv, params := startTestServer(t)
	srv.StreamThreshold = -1 // stream everything
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(background(), `CREATE TABLE t (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
	rows, err := c.QueryStream(background(), `SELECT i FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Streaming() {
		t.Fatal("threshold -1 must stream")
	}
	_, tbl, err := rows.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if tbl == nil || tbl.NumRows() != 0 || len(tbl.Cols) != 1 || tbl.Cols[0].Name != "i" {
		t.Fatalf("empty streamed result must keep the schema like the one-shot path: %+v", tbl)
	}
}

// ---- mid-stream client disconnect ----

func TestServerSurvivesMidStreamClientDisconnect(t *testing.T) {
	srv, params := startTestServer(t)
	srv.StreamThreshold = 1 // stream everything
	boot, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := boot.Query(background(), `CREATE TABLE t (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	sb.WriteString(`INSERT INTO t VALUES (0)`)
	for i := 1; i < 5000; i++ {
		fmt.Fprintf(&sb, ", (%d)", i)
	}
	if _, _, err := boot.Query(background(), sb.String()); err != nil {
		t.Fatal(err)
	}
	boot.Close()

	// Raw connection: handshake, send the query, hang up immediately while
	// the server is (or is about to be) streaming the response.
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
	if err := WriteFrame(nc, MsgQuery, []byte(`SELECT i FROM t`)); err != nil {
		t.Fatal(err)
	}
	nc.Close()

	// The server must shrug it off and keep serving other clients.
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, tbl, err := c.Query(background(), `SELECT COUNT(*) AS n FROM t`)
	if err != nil || tbl.Cols[0].Ints[0] != 5000 {
		t.Fatalf("server unhealthy after disconnect: %v %v", tbl, err)
	}
}

// ---- pipelining ----

func TestPipelinedQueriesAnswerInOrder(t *testing.T) {
	_, params := startTestServer(t)
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(background(), `CREATE TABLE t (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
	// Hand-pipeline over a raw connection: several queries written before
	// any response is read; responses must come back in order.
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
	const n = 10
	for i := 0; i < n; i++ {
		sql := fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i)
		if err := WriteFrame(nc, MsgQuery, []byte(sql)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		typ, payload, err := ReadFrame(nc)
		if err != nil {
			t.Fatal(err)
		}
		if typ != MsgResult {
			t.Fatalf("reply %d: type %d", i, typ)
		}
		msg, _, err := DecodeResult(payload)
		if err != nil || msg != "INSERT 1" {
			t.Fatalf("reply %d: %q %v", i, msg, err)
		}
	}
	_, tbl, err := c.Query(background(), `SELECT COUNT(*) AS n FROM t`)
	if err != nil || tbl.Cols[0].Ints[0] != n {
		t.Fatalf("%v %v", tbl, err)
	}
}

// ---- pool ----

func TestPoolServesConcurrentClients(t *testing.T) {
	_, params := startTestServer(t)
	pool := NewPool(params, 4)
	defer pool.Close()
	if _, err := pool.Exec(background(), `CREATE TABLE t (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := pool.Exec(background(), `INSERT INTO t VALUES (1)`); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	_, tbl, err := pool.Query(background(), `SELECT COUNT(*) AS n FROM t`)
	if err != nil || tbl.Cols[0].Ints[0] != workers*perWorker {
		t.Fatalf("%v %v", tbl, err)
	}
	st := pool.StatsSnapshot()
	if st.Dials == 0 || st.Dials > 4 {
		t.Fatalf("pool bound violated: %+v", st)
	}
	if st.BytesRead == 0 || st.BytesWritten == 0 {
		t.Fatalf("pool byte accounting missing: %+v", st)
	}
}

func TestPoolDiscardsBrokenConnectionsAtCheckin(t *testing.T) {
	_, params := startTestServer(t)
	pool := NewPool(params, 2)
	defer pool.Close()
	c, err := pool.Get(background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(background())
	cancel()
	if _, _, err := c.Query(ctx, `SELECT 1 AS one`); err == nil {
		t.Fatal("cancelled query must fail")
	}
	if !c.Broken() {
		t.Fatal("connection should be broken")
	}
	pool.Put(c)
	if st := pool.StatsSnapshot(); st.Discards != 1 {
		t.Fatalf("broken conn must be discarded: %+v", st)
	}
	// the pool recovers with a fresh dial
	if _, err := pool.Exec(background(), `SELECT 1 AS one`); err != nil {
		t.Fatal(err)
	}
}

func TestPoolGetHonorsContextWhileExhausted(t *testing.T) {
	_, params := startTestServer(t)
	pool := NewPool(params, 1)
	defer pool.Close()
	c, err := pool.Get(background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(background(), 50*time.Millisecond)
	defer cancel()
	if _, err := pool.Get(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("exhausted pool checkout must respect ctx: %v", err)
	}
	pool.Put(c)
	c2, err := pool.Get(background())
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(c2)
}

func TestPoolQueryStreamReturnsConnection(t *testing.T) {
	_, params := startTestServer(t)
	pool := NewPool(params, 1)
	defer pool.Close()
	if _, err := pool.Exec(background(), `CREATE TABLE t (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Exec(background(), `INSERT INTO t VALUES (1), (2), (3)`); err != nil {
		t.Fatal(err)
	}
	rows, err := pool.QueryStream(background(), `SELECT i FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n += rows.Batch().NumRows()
	}
	if err := rows.Err(); err != nil || n != 3 {
		t.Fatalf("%d %v", n, err)
	}
	// the single pooled connection must be back: another query succeeds
	ctx, cancel := context.WithTimeout(background(), 2*time.Second)
	defer cancel()
	if _, err := pool.Exec(ctx, `SELECT 1 AS one`); err != nil {
		t.Fatalf("connection not returned to pool: %v", err)
	}
}

// ---- graceful drain ----

func TestServerCloseDrainsGracefully(t *testing.T) {
	srv, params := startTestServer(t)
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(background(), `CREATE TABLE t (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close must not wait for connected-but-idle clients")
	}
}

// ---- engine Conn over the wire keeps reporting io.EOF semantics ----

func TestReadFrameEOF(t *testing.T) {
	if _, _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("clean EOF must surface as io.EOF: %v", err)
	}
}

package wire

import (
	"bufio"
	"context"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// ConnParams are the five client connection parameters of the devUDF
// settings window (paper Fig. 2).
type ConnParams struct {
	Host     string
	Port     int
	Database string
	User     string
	Password string
}

// Addr renders host:port.
func (p ConnParams) Addr() string {
	host := p.Host
	if host == "" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, strconv.Itoa(p.Port))
}

// Client is a connected, authenticated database session. A Client is not
// safe for concurrent use; Pool hands out Clients one checkout at a time.
type Client struct {
	params ConnParams
	nc     net.Conn
	// br is the connection's one reader. recv, Close's goodbye read and
	// DebugConn's demux all read through it: bytes it has buffered are
	// lost to anyone reading nc directly.
	br     *bufio.Reader
	fw     frameWriter
	broken atomic.Bool // protocol desync (cancellation, IO error): do not reuse
	// stmtCloses queues deferred server-side statement closes (see
	// deferCloseStmt); guarded by stmtCloseMu because PoolStmt.Close may
	// append while another goroutine holds the connection.
	stmtCloseMu sync.Mutex
	stmtCloses  []uint32
	// BytesRead counts payload bytes received, for the transfer benches.
	BytesRead int64
	// BytesWritten counts payload bytes sent.
	BytesWritten int64
	// poolCountedRead/Written are the Pool's accounting high-water marks.
	poolCountedRead    int64
	poolCountedWritten int64
}

// DialContext connects and authenticates as a protocol v2 client.
// The context governs the TCP connect and the handshake; cancelling it
// afterwards has no effect on the connection. ctx must be non-nil.
func DialContext(ctx context.Context, p ConnParams, opts ...DialOption) (*Client, error) {
	cfg := defaultDialConfig()
	for _, o := range opts {
		o(&cfg)
	}
	d := net.Dialer{Timeout: cfg.dialTimeout, KeepAlive: keepAlive}
	nc, err := d.DialContext(ctx, "tcp", p.Addr())
	if err != nil {
		// The dialer reports a done context as its own "operation was
		// canceled" / "i/o timeout": keep the kind when it was the caller
		// who gave up, so nobody retries it or counts it against the
		// endpoint.
		kind := core.KindIO
		if ctx.Err() != nil {
			kind = core.KindCancelled
		}
		return nil, core.Wrapf(kind, err, "connect %s: %v", p.Addr(), err)
	}
	c, err := newClient(ctx, nc, p)
	if err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// newClient authenticates over an established connection.
func newClient(ctx context.Context, nc net.Conn, p ConnParams) (*Client, error) {
	c := clientOn(nc, p)
	if err := c.handshake(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// clientOn is a Client over nc that has not authenticated yet.
func clientOn(nc net.Conn, p ConnParams) *Client {
	return &Client{params: p, nc: nc, br: bufio.NewReader(nc), fw: frameWriter{w: nc}}
}

// handshake authenticates the connection as a protocol v2 client.
func (c *Client) handshake(ctx context.Context) error {
	p := c.params
	return c.call(ctx, MsgAuth, EncodeAuth(p.User, p.Password, p.Database, ProtoV2), MsgAuthOK, func(reply []byte) error {
		_, ver, err := DecodeAuthOK(reply)
		if err == nil && ver < ProtoV2 {
			err = core.Errorf(core.KindProtocol,
				"server negotiated protocol v%d; this client speaks v%d only", ver, ProtoV2)
		}
		return err
	})
}

// Broken reports whether the connection is protocol-desynced (a cancelled
// in-flight operation, an IO error) and must not be reused. Pool discards
// broken connections at checkin.
func (c *Client) Broken() bool { return c.broken.Load() }

// watch arranges for pending socket IO to be unblocked when ctx is
// cancelled, by forcing an immediate deadline. The returned stop function
// disarms it and reports the context error, if it fired; call it exactly
// once.
func (c *Client) watch(ctx context.Context) (stop func() error) {
	if ctx == nil || ctx.Done() == nil {
		return func() error { return nil }
	}
	fired := make(chan struct{})
	disarm := context.AfterFunc(ctx, func() {
		defer close(fired)
		// The connection is now mid-protocol; poison it so a pool never
		// hands it out again.
		c.broken.Store(true)
		_ = c.nc.SetDeadline(time.Now())
	})
	return func() error {
		if !disarm() {
			// The callback has started: let it finish, or its deadline
			// could land on whoever uses the connection next.
			<-fired
		}
		if err := ctx.Err(); err != nil {
			// The caller's context aborted the operation: surface it as a
			// cancellation, not a transport failure, so core.IsCancelled
			// recognizes it and the retry path does not re-run a
			// deliberately abandoned operation.
			return core.Wrapf(core.KindCancelled, err, "operation aborted: %v", err)
		}
		return nil
	}
}

func (c *Client) send(typ byte, payload []byte) error {
	c.BytesWritten += int64(len(payload)) + 5
	if err := c.fw.writeFrame(typ, payload); err != nil {
		c.broken.Store(true)
		return err
	}
	return nil
}

func (c *Client) recv() (byte, []byte, error) {
	typ, payload, err := ReadFrame(c.br)
	if err != nil {
		c.broken.Store(true)
		return 0, nil, err
	}
	c.BytesRead += int64(len(payload)) + 5
	return typ, payload, nil
}

// Every request takes one of two shapes, and both open with begin: start
// for a request answered by a result (MsgQuery, MsgExecStmt), call for one
// answered by a single frame (the handshake, MsgPrepare, MsgCloseStmt,
// MsgPing).

// begin is the prologue of every request: it refuses a broken connection,
// arms ctx's watch and flushes the deferred statement closes, except keep,
// the statement the request executes (0 for none). The caller must pass the
// returned stop function to disarm.
func (c *Client) begin(ctx context.Context, keep uint32) (func() error, error) {
	if c.broken.Load() {
		return nil, core.Errorf(core.KindIO, "connection is broken")
	}
	stop := c.watch(ctx)
	if err := c.flushStmtCloses(keep); err != nil {
		return nil, disarm(stop, err)
	}
	return stop, nil
}

// disarm stops a request's context watch and returns the request's error,
// or the context's when it was the context that ended the request.
func disarm(stop func() error, err error) error {
	if werr := stop(); werr != nil {
		return werr
	}
	return err
}

// start sends a request answered by a result and reads the reply's first
// frame into the Rows that reads the rest.
func (c *Client) start(ctx context.Context, typ byte, payload []byte, keep uint32) (*Rows, error) {
	stop, err := c.begin(ctx, keep)
	if err != nil {
		return nil, err
	}
	r := &Rows{c: c, stop: stop}
	if err = c.send(typ, payload); err == nil {
		r.pending, err = r.fetch()
	}
	if err != nil {
		return nil, disarm(stop, err)
	}
	return r, nil
}

// call sends a request answered by one frame of type want, whose payload
// decode reads (decode may be nil).
func (c *Client) call(ctx context.Context, typ byte, payload []byte, want byte, decode func([]byte) error) error {
	stop, err := c.begin(ctx, 0)
	if err != nil {
		return err
	}
	return disarm(stop, c.exchange(typ, payload, want, decode))
}

// exchange sends one request and reads its reply by the reply rule: the
// reply is the expected type, or MsgErr, returned as the typed error it
// carries (see serverError). Anything else, or a payload decode refuses, is
// a protocol error and poisons the connection.
func (c *Client) exchange(typ byte, payload []byte, want byte, decode func([]byte) error) error {
	if err := c.send(typ, payload); err != nil {
		return err
	}
	got, reply, err := c.recv()
	switch {
	case err != nil:
		return err
	case got == MsgErr:
		return serverError(reply)
	case got != want:
		err = core.Errorf(core.KindProtocol, "unexpected reply %d to request %d", got, typ)
	case decode != nil:
		err = decode(reply)
	}
	if err != nil {
		c.broken.Store(true)
	}
	return err
}

// serverError is the error a MsgErr payload carries. The connection stays
// in sync whatever its kind: the engine reports some statement errors as
// protocol errors (extract options or a payload that do not decode) and the
// session goes on serving. When the server refuses the byte stream itself
// it hangs up, and the next read poisons the connection.
func serverError(payload []byte) error { return remoteError{DecodeError(payload)} }

// remoteError is an error the server reported. It reads as the error it
// wraps; the type tells it apart from the client's own refusals, which
// poison the connection.
type remoteError struct{ err error }

func (e remoteError) Error() string { return e.err.Error() }
func (e remoteError) Unwrap() error { return e.err }

// Query executes SQL on the server and returns the status message and the
// fully materialized result table (nil for statements without one). Large
// result sets arrive chunked and are reassembled here; use QueryStream
// to consume them incrementally instead.
func (c *Client) Query(ctx context.Context, sql string) (string, *storage.Table, error) {
	rows, err := c.QueryStream(ctx, sql)
	if err != nil {
		return "", nil, err
	}
	return rows.ReadAll()
}

// Exec executes SQL for its side effects and returns the status message,
// discarding result rows batch-by-batch so peak memory stays at one chunk.
func (c *Client) Exec(ctx context.Context, sql string) (string, error) {
	rows, err := c.QueryStream(ctx, sql)
	if err != nil {
		return "", err
	}
	return rows.discard()
}

// QueryStream executes SQL and returns a Rows iterator over the result
// batches. The context governs the whole stream: cancelling it aborts the
// iteration and poisons the connection. Rows must be fully consumed or
// Closed before the next operation on this client.
func (c *Client) QueryStream(ctx context.Context, sql string) (*Rows, error) {
	return c.start(ctx, MsgQuery, []byte(sql), 0)
}

// Ping round-trips a liveness probe. The pool uses it to health-check idle
// connections.
func (c *Client) Ping(ctx context.Context) error {
	return c.call(ctx, MsgPing, nil, MsgPong, nil)
}

// Close says goodbye and closes the socket.
func (c *Client) Close() error {
	if !c.broken.Load() {
		_ = c.send(MsgClose, nil)
		// best-effort read of the goodbye
		_ = c.nc.SetReadDeadline(time.Now().Add(time.Second))
		_, _, _ = ReadFrame(c.br)
	}
	c.broken.Store(true)
	return c.nc.Close()
}

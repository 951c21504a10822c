package wire

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// noDeadline clears a connection deadline.
func noDeadline() time.Time { return time.Time{} }

// DebugConn takes exclusive ownership of a v2 client connection and demuxes
// its inbound frames: replies to debug requests (matched by seq), server-
// pushed debug events, and ordinary query responses — so the IDE side can
// keep issuing queries on the same connection while the debuggee runs and
// stop events arrive asynchronously.
//
// Once a Client is switched into debug mode its plain Query/Exec/Ping
// methods must not be used; route queries through DebugConn.Query/Exec.
// Close tears the connection down — debug state is not resumable, so the
// connection is never returned to a pool.
type DebugConn struct {
	c *Client

	wmu sync.Mutex // serializes frame writes

	pmu     sync.Mutex
	seq     int // last key handed out for pending
	pending map[int]chan DebugReply

	qmu     sync.Mutex
	queries []*queryWaiter

	events chan DebugEventMsg

	readerDone chan struct{}
	readErr    error // valid after readerDone closes

	closeOnce sync.Once
}

type queryWaiter struct {
	ch chan queryOutcome
}

type queryOutcome struct {
	msg   string
	table *storage.Table
	err   error
}

// Debug switches the client connection into debug mode and starts the
// demux reader.
func (c *Client) Debug() (*DebugConn, error) {
	if c.broken.Load() {
		return nil, core.Errorf(core.KindIO, "connection is broken")
	}
	dc := &DebugConn{
		c:          c,
		pending:    map[int]chan DebugReply{},
		events:     make(chan DebugEventMsg, 64),
		readerDone: make(chan struct{}),
	}
	// The demux reader owns all reads from here on; disable the read
	// deadline the synchronous path may have armed.
	_ = c.nc.SetReadDeadline(noDeadline())
	go dc.readLoop()
	return dc, nil
}

// readLoop is the demux: it classifies every inbound frame until the
// connection dies or says goodbye.
func (dc *DebugConn) readLoop() {
	defer dc.finishRead()
	var cur *queryAssembly
	for {
		typ, payload, err := ReadFrame(dc.c.br)
		if err != nil {
			dc.readErr = err
			return
		}
		dc.c.BytesRead += int64(len(payload)) + 5
		// MsgAuthOK, MsgPrepareOK and MsgCloseStmtOK take the default arm:
		// handshake and prepared statements cannot run on a debug-mode
		// connection.
		switch typ {
		case MsgDebugEvent:
			ev, err := DecodeDebugEvent(payload)
			if err != nil {
				dc.readErr = err
				return
			}
			dc.events <- ev
		case MsgDebugReply:
			rep, err := DecodeDebugReply(payload)
			if err != nil {
				dc.readErr = err
				return
			}
			dc.pmu.Lock()
			ch := dc.pending[rep.Seq]
			delete(dc.pending, rep.Seq)
			dc.pmu.Unlock()
			if ch != nil {
				ch <- rep
			}
		case MsgResult:
			msg, t, err := DecodeResult(payload)
			dc.completeQuery(queryOutcome{msg: msg, table: t, err: err})
			if err != nil {
				dc.readErr = err
				return
			}
		case MsgResultChunk:
			t, err := DecodeResultChunk(payload)
			if err != nil {
				dc.completeQuery(queryOutcome{err: err})
				dc.readErr = err
				return
			}
			if cur == nil {
				cur = &queryAssembly{}
			}
			if err := cur.add(t); err != nil {
				dc.completeQuery(queryOutcome{err: err})
				dc.readErr = err
				return
			}
		case MsgResultEnd:
			msg, _, err := DecodeResultEnd(payload)
			if err != nil {
				dc.completeQuery(queryOutcome{err: err})
				dc.readErr = err
				return
			}
			var t *storage.Table
			if cur != nil {
				t = cur.table
			}
			cur = nil
			dc.completeQuery(queryOutcome{msg: msg, table: t})
		case MsgErr:
			cur = nil
			dc.completeQuery(queryOutcome{err: DecodeError(payload)})
		case MsgPong:
			// Liveness ack; nothing waits on it in debug mode.
		case MsgGoodbye:
			dc.readErr = core.Errorf(core.KindIO, "server closed the session")
			return
		default:
			dc.readErr = core.Errorf(core.KindProtocol, "unexpected frame %d in debug demux", typ)
			return
		}
	}
}

// queryAssembly reassembles a chunked result stream.
type queryAssembly struct {
	table *storage.Table
}

func (a *queryAssembly) add(t *storage.Table) error {
	if a.table == nil {
		a.table = t
		return nil
	}
	return a.table.AppendTable(t)
}

// finishRead fails every waiter once the demux stops.
func (dc *DebugConn) finishRead() {
	dc.c.broken.Store(true)
	close(dc.readerDone)
	dc.pmu.Lock()
	for seq, ch := range dc.pending {
		delete(dc.pending, seq)
		close(ch)
	}
	dc.pmu.Unlock()
	dc.qmu.Lock()
	for _, w := range dc.queries {
		close(w.ch)
	}
	dc.queries = nil
	dc.qmu.Unlock()
	close(dc.events)
}

// failed returns the demux terminal error.
func (dc *DebugConn) failed() error {
	if dc.readErr != nil {
		return dc.readErr
	}
	return core.Errorf(core.KindIO, "debug connection closed")
}

// send writes one frame under the write lock.
func (dc *DebugConn) send(typ byte, payload []byte) error {
	dc.wmu.Lock()
	defer dc.wmu.Unlock()
	//lockblock:ok the write mutex exists to serialize frame writes
	return dc.c.send(typ, payload)
}

// RoundTrip sends one debug request and waits for its reply. It fails with
// the reply's in-band error when the server rejects the command. ctx must
// be non-nil.
func (dc *DebugConn) RoundTrip(ctx context.Context, req DebugRequest) (DebugReply, error) {
	ch := make(chan DebugReply, 1)
	dc.pmu.Lock()
	dc.seq++
	req.Seq = dc.seq
	dc.pending[req.Seq] = ch
	dc.pmu.Unlock()
	if err := dc.send(MsgDebug, EncodeDebugRequest(req)); err != nil {
		dc.pmu.Lock()
		delete(dc.pending, req.Seq)
		dc.pmu.Unlock()
		return DebugReply{}, err
	}
	select {
	case rep, ok := <-ch:
		if !ok {
			return DebugReply{}, dc.failed()
		}
		if !rep.Success {
			return rep, core.Errorf(core.KindRuntime, "%s", rep.Error)
		}
		return rep, nil
	case <-ctx.Done():
		dc.pmu.Lock()
		delete(dc.pending, req.Seq)
		dc.pmu.Unlock()
		return DebugReply{}, core.Wrapf(core.KindCancelled, ctx.Err(), "debug request aborted: %v", ctx.Err())
	}
}

// WaitEvent blocks for the next debug event. ctx must be non-nil.
func (dc *DebugConn) WaitEvent(ctx context.Context) (DebugEventMsg, error) {
	select {
	case ev, ok := <-dc.events:
		if !ok {
			return DebugEventMsg{}, dc.failed()
		}
		return ev, nil
	case <-ctx.Done():
		return DebugEventMsg{}, core.Wrapf(core.KindCancelled, ctx.Err(), "wait aborted: %v", ctx.Err())
	}
}

// Query runs SQL on the same connection while the debug session is active —
// the demux routes its response frames around interleaved debug events. The
// result is fully materialized. ctx must be non-nil.
func (dc *DebugConn) Query(ctx context.Context, sql string) (string, *storage.Table, error) {
	w := &queryWaiter{ch: make(chan queryOutcome, 1)}
	dc.qmu.Lock()
	dc.queries = append(dc.queries, w)
	dc.qmu.Unlock()
	if err := dc.send(MsgQuery, []byte(sql)); err != nil {
		// Unqueue the waiter, or the next query's response would be
		// delivered to this abandoned slot and shift every result.
		dc.qmu.Lock()
		for i, qw := range dc.queries {
			if qw == w {
				dc.queries = append(dc.queries[:i], dc.queries[i+1:]...)
				break
			}
		}
		dc.qmu.Unlock()
		return "", nil, err
	}
	select {
	case out, ok := <-w.ch:
		if !ok {
			return "", nil, dc.failed()
		}
		return out.msg, out.table, out.err
	case <-ctx.Done():
		// The response will still arrive; without consuming it the stream
		// is unusable, so poison the connection.
		dc.c.broken.Store(true)
		return "", nil, core.Wrapf(core.KindCancelled, ctx.Err(), "query aborted: %v", ctx.Err())
	}
}

// Exec runs SQL for its side effects.
func (dc *DebugConn) Exec(ctx context.Context, sql string) (string, error) {
	msg, _, err := dc.Query(ctx, sql)
	return msg, err
}

// completeQuery hands a finished query outcome to the oldest waiter.
func (dc *DebugConn) completeQuery(out queryOutcome) {
	dc.qmu.Lock()
	var w *queryWaiter
	if len(dc.queries) > 0 {
		w = dc.queries[0]
		dc.queries = dc.queries[1:]
	}
	dc.qmu.Unlock()
	if w != nil {
		w.ch <- out
	}
}

// Close tears down the debug connection. The underlying client is poisoned
// and closed; it must not be reused.
func (dc *DebugConn) Close() error {
	var err error
	dc.closeOnce.Do(func() {
		dc.c.broken.Store(true)
		err = dc.c.nc.Close()
		<-dc.readerDone
	})
	return err
}

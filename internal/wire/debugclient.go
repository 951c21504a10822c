package wire

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
)

// noDeadline clears a connection deadline.
func noDeadline() time.Time { return time.Time{} }

// DebugConn takes exclusive ownership of a v2 client connection for the
// debug sub-protocol. It sends MsgDebug requests and demuxes what comes
// back: replies, matched to their request by seq, and the stop events the
// server pushes whenever the debuggee stops. It carries debug traffic only;
// queries go through another connection, a pool's. Close tears the
// connection down — debug state is not resumable, so the connection is
// never returned to a pool.
type DebugConn struct {
	c *Client

	wmu sync.Mutex // serializes frame writes

	pmu     sync.Mutex
	seq     int // last key handed out for pending
	pending map[int]chan DebugReply

	events  chan DebugEventMsg
	closing chan struct{} // closed by Close: the demux stops delivering events

	readerDone chan struct{}
	readErr    error // valid after readerDone closes

	closeOnce sync.Once
}

// Debug hands the connection to a DebugConn and starts its demux. The
// Client's own methods must not be used on it afterwards.
func (c *Client) Debug() (*DebugConn, error) {
	if c.broken.Load() {
		return nil, core.Errorf(core.KindIO, "connection is broken")
	}
	dc := &DebugConn{
		c:          c,
		pending:    map[int]chan DebugReply{},
		events:     make(chan DebugEventMsg, 64),
		closing:    make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	// The demux reader owns all reads from here on; disable the read
	// deadline the synchronous path may have armed.
	_ = c.nc.SetReadDeadline(noDeadline())
	go dc.readLoop()
	return dc, nil
}

// readLoop is the demux: it routes every inbound frame until the connection
// dies, says goodbye, or sends something that is not debug traffic.
func (dc *DebugConn) readLoop() {
	defer dc.finishRead()
	for {
		typ, payload, err := ReadFrame(dc.c.br)
		if err != nil {
			dc.readErr = err
			return
		}
		dc.c.BytesRead += int64(len(payload)) + 5
		switch typ {
		case MsgDebugEvent:
			ev, err := DecodeDebugEvent(payload)
			if err != nil {
				dc.readErr = err
				return
			}
			select {
			case dc.events <- ev:
			case <-dc.closing:
				return
			}
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
		case MsgGoodbye:
			dc.readErr = core.Errorf(core.KindIO, "server closed the session")
			return
		default:
			dc.readErr = core.Errorf(core.KindProtocol, "unexpected frame %d on a debug connection", typ)
			return
		}
	}
}

// finishRead poisons the connection and fails every waiter once the demux
// stops.
func (dc *DebugConn) finishRead() {
	dc.c.broken.Store(true)
	close(dc.readerDone)
	dc.pmu.Lock()
	for seq, ch := range dc.pending {
		delete(dc.pending, seq)
		close(ch)
	}
	dc.pmu.Unlock()
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
	return dc.c.send(typ, payload) //lockblock:ok the write mutex exists to serialize frame writes
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

// Close tears down the debug connection. The underlying client is poisoned
// and closed; it must not be reused.
func (dc *DebugConn) Close() error {
	var err error
	dc.closeOnce.Do(func() {
		dc.c.broken.Store(true)
		close(dc.closing)
		err = dc.c.nc.Close()
		<-dc.readerDone
	})
	return err
}

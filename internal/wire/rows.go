package wire

import (
	"repro/internal/core"
	"repro/internal/storage"
)

// Rows iterates over a query's result batches as they arrive off the wire,
// so a result set is never bounded by the one-frame cap and can be consumed
// incrementally. Typical use:
//
//	rows, err := c.QueryStream(ctx, sql)
//	...
//	for rows.Next() {
//	    batch := rows.Batch() // *storage.Table with this batch's rows
//	}
//	err = rows.Err()
//
// A Rows must be fully consumed (Next until false) or Closed before the
// next operation on the same Client.
type Rows struct {
	c    *Client
	stop func() error // disarms the context watchdog; nil once called
	pool *Pool        // the pool c goes back to when the stream ends; nil once returned

	msg       string
	totalRows int64
	carried   int64          // rows of the chunks read so far
	pending   *storage.Table // first batch, consumed by the first Next
	cur       *storage.Table
	streaming bool // a chunk arrived: the reply is a stream
	finished  bool // terminator (or one-shot result) already read
	closed    bool
	err       error
}

// Next advances to the next batch, fetching it from the wire if needed. It
// returns false when the stream is exhausted or failed; check Err then.
func (r *Rows) Next() bool {
	if r.err != nil || r.closed {
		return false
	}
	if r.pending != nil {
		r.cur, r.pending = r.pending, nil
		return true
	}
	if !r.finished {
		t, err := r.fetch()
		if t != nil {
			r.cur = t
			return true
		}
		r.err = err
	}
	r.finish()
	return false
}

// fetch reads the reply's next frame; it is the client's one reader of
// result frames. MsgResult is a whole reply, legal only as the first frame;
// chunks stream until MsgResultEnd, whose row count must be the chunks'.
// MsgErr ends the reply with the error it carries (see serverError).
// Anything else, or a payload that does not decode, is a protocol error and
// poisons the connection. A nil table and a nil error mean the reply is
// over.
func (r *Rows) fetch() (t *storage.Table, err error) {
	typ, payload, err := r.c.recv()
	if err != nil {
		return nil, err
	}
	switch {
	case typ == MsgResult && !r.streaming:
		r.finished = true
		r.msg, t, err = DecodeResult(payload)
	case typ == MsgResultChunk:
		r.streaming = true
		if t, err = DecodeResultChunk(payload); err == nil {
			r.carried += int64(t.NumRows())
		}
	case typ == MsgResultEnd && r.streaming:
		r.finished = true
		r.msg, r.totalRows, err = DecodeResultEnd(payload)
		if err == nil && r.totalRows != r.carried {
			err = core.Errorf(core.KindProtocol, "result stream ends at %d rows, its chunks carried %d", r.totalRows, r.carried)
		}
	case typ == MsgErr:
		r.finished = true
		return nil, serverError(payload)
	default:
		err = core.Errorf(core.KindProtocol, "unexpected frame %d in a result", typ)
	}
	if err != nil {
		r.c.broken.Store(true)
		return nil, err
	}
	return t, nil
}

// Batch returns the current batch after a successful Next. The table is
// owned by the caller.
func (r *Rows) Batch() *storage.Table { return r.cur }

// Msg returns the status message. For streamed results it is only known
// once the stream is exhausted.
func (r *Rows) Msg() string { return r.msg }

// TotalRows returns the server-reported row count of a streamed result,
// available once the stream is exhausted (0 for one-shot results).
func (r *Rows) TotalRows() int64 { return r.totalRows }

// Streaming reports whether the result arrived via the chunked path.
func (r *Rows) Streaming() bool { return r.streaming }

// Err returns the error that terminated iteration, if any. A cancelled
// context surfaces here wrapped around context.Canceled.
func (r *Rows) Err() error { return r.err }

// finish disarms the context watchdog once the stream is done, promoting a
// context cancellation into the iteration error, and returns a pooled
// connection to its pool.
func (r *Rows) finish() {
	if r.stop != nil {
		werr := r.stop()
		r.stop = nil
		if werr != nil && r.err == nil {
			r.err = werr
		}
	}
	if r.pool != nil {
		r.pool.Put(r.c)
		r.pool = nil
	}
}

// Close drains any unread remainder of the stream so the connection stays
// usable, then releases the iterator. It is safe to call more than once.
func (r *Rows) Close() error {
	if r.closed {
		return r.err
	}
	for !r.finished && r.err == nil {
		r.cur = nil
		if !r.Next() {
			break
		}
	}
	r.closed = true
	r.cur, r.pending = nil, nil
	r.finish()
	return r.err
}

// execReply is the Exec surface of Client, Pool and Stmt over the stream
// their QueryStream started (or failed to start): it consumes the stream
// batch by batch, keeping peak memory at one chunk, and returns the status
// message.
func execReply(r *Rows, err error) (string, error) {
	if err != nil {
		return "", err
	}
	for r.Next() {
	}
	if err := r.Close(); err != nil {
		return "", err
	}
	return r.msg, nil
}

// queryReply is the Query surface of Client, Pool and Stmt: ReadAll over
// the stream their QueryStream started (or failed to start).
func queryReply(r *Rows, err error) (string, *storage.Table, error) {
	if err != nil {
		return "", nil, err
	}
	return r.ReadAll()
}

// ReadAll consumes the whole stream and reassembles it into one table,
// returning the status message — the buffered surface on top of the
// streaming one.
func (r *Rows) ReadAll() (string, *storage.Table, error) {
	var out *storage.Table
	for r.Next() {
		b := r.Batch()
		if out == nil {
			out = b
		} else if err := out.AppendTable(b); err != nil {
			// Mismatched batch schemas mean the stream is untrustworthy and
			// unread frames may remain; never reuse this connection.
			r.c.broken.Store(true)
			r.err = err
			break
		}
	}
	if err := r.Close(); err != nil {
		return "", nil, err
	}
	return r.msg, out, nil
}

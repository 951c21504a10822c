package wire

import (
	"context"

	"repro/internal/core"
	"repro/internal/storage"
)

// ErrStmtClosed reports execution of a prepared statement that has been
// closed. Compare with errors.Is.
var ErrStmtClosed = core.Errorf(core.KindConstraint, "statement is closed")

// Stmt is a statement prepared on one connection: the server parsed and
// planned the SQL once, and each Query/Exec ships only a statement id plus
// typed bind arguments. A Stmt lives on the connection that prepared it
// and, like Client, is not safe for concurrent use: from a Pool, prepare,
// execute and close it within one checkout.
type Stmt struct {
	c       *Client
	id      uint32
	nparams int
	sql     string
	closed  bool
}

// Prepare compiles sql server-side and returns the statement handle.
func (c *Client) Prepare(ctx context.Context, sql string) (*Stmt, error) {
	st := &Stmt{c: c, sql: sql}
	err := c.call(ctx, MsgPrepare, []byte(sql), MsgPrepareOK, func(reply []byte) (err error) {
		st.id, st.nparams, err = DecodePrepareOK(reply)
		return err
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// SQL returns the statement's original text.
func (s *Stmt) SQL() string { return s.sql }

// NumParams reports how many bind arguments each execution needs.
func (s *Stmt) NumParams() int { return s.nparams }

// QueryStream executes the statement with one set of bind arguments and
// returns a Rows iterator over the result batches — the prepared analogue
// of Client.QueryStream, sharing its response protocol.
func (s *Stmt) QueryStream(ctx context.Context, args ...any) (*Rows, error) {
	if s.closed {
		return nil, ErrStmtClosed
	}
	if len(args) != s.nparams {
		return nil, core.Errorf(core.KindConstraint,
			"statement expects %d bind parameter(s), got %d", s.nparams, len(args))
	}
	cols, err := storage.BindValues(args)
	if err != nil {
		return nil, err
	}
	return s.c.start(ctx, MsgExecStmt, EncodeExecStmt(s.id, cols))
}

// Query executes the statement and returns the status message and the
// fully materialized result table.
func (s *Stmt) Query(ctx context.Context, args ...any) (string, *storage.Table, error) {
	return queryReply(s.QueryStream(ctx, args...))
}

// Exec executes the statement for its side effects, returning the status
// message.
func (s *Stmt) Exec(ctx context.Context, args ...any) (string, error) {
	return execReply(s.QueryStream(ctx, args...))
}

// Close discards the server-side statement, freeing its slot in the
// connection's bounded statement table. Safe to call more than once.
func (s *Stmt) Close(ctx context.Context) error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.c.broken.Load() {
		// The connection is going away; the server frees the statement with
		// the session.
		return nil
	}
	return s.c.call(ctx, MsgCloseStmt, EncodeCloseStmt(s.id), MsgCloseStmtOK, nil)
}

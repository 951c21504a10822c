package wire

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/storage"
)

// ErrStmtClosed reports execution of a prepared statement that has been
// closed. Compare with errors.Is.
var ErrStmtClosed = core.Errorf(core.KindConstraint, "statement is closed")

// Stmt is a statement prepared on one connection: the server parsed and
// planned the SQL once, and each Query/Exec ships only a statement id plus
// typed bind arguments. Like Client, a Stmt is not safe for concurrent use;
// PoolStmt layers pooling on top.
type Stmt struct {
	c       *Client
	id      uint32
	nparams int
	sql     string
	closed  bool
}

// deferCloseStmt queues a server-side statement close to be flushed by the
// next operation that exclusively holds this connection. PoolStmt.Close
// uses it: the connection may be checked out by another goroutine at close
// time, so the close round trip cannot happen immediately — but leaving
// the slot occupied would exhaust the server's bounded per-connection
// statement table.
func (c *Client) deferCloseStmt(id uint32) {
	c.stmtCloseMu.Lock()
	c.stmtCloses = append(c.stmtCloses, id)
	c.stmtCloseMu.Unlock()
}

// stmtClosePending reports whether id is queued for a deferred close.
func (c *Client) stmtClosePending(id uint32) bool {
	c.stmtCloseMu.Lock()
	defer c.stmtCloseMu.Unlock()
	for _, pending := range c.stmtCloses {
		if pending == id {
			return true
		}
	}
	return false
}

// flushStmtCloses performs the deferred statement closes; begin calls it
// while the caller exclusively holds the connection. A non-zero keep id is
// left queued instead of closed, and reported as ErrStmtClosed: the caller
// is about to execute that statement and must learn it was closed under
// it. A server-side MsgErr (e.g. the id raced a disconnect) is non-fatal;
// a reply that poisons the connection surfaces.
func (c *Client) flushStmtCloses(keep uint32) error {
	c.stmtCloseMu.Lock()
	ids := c.stmtCloses
	c.stmtCloses = nil
	kept := false
	for _, id := range ids {
		if keep != 0 && id == keep {
			c.stmtCloses = append(c.stmtCloses, id)
			kept = true
		}
	}
	c.stmtCloseMu.Unlock()
	for _, id := range ids {
		if keep != 0 && id == keep {
			continue
		}
		if err := c.exchange(MsgCloseStmt, EncodeCloseStmt(id), MsgCloseStmtOK, nil); err != nil && c.broken.Load() {
			return err
		}
	}
	if kept {
		return ErrStmtClosed
	}
	return nil
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

// bindArgCols converts Go bind arguments into the typed length-1 columns
// the MsgExecStmt encoding carries.
func bindArgCols(args []any) ([]*storage.Column, error) {
	cols := make([]*storage.Column, len(args))
	for i, v := range args {
		col, err := storage.BindValue(v)
		if err != nil {
			return nil, core.Wrapf(core.KindType, err, "parameter %d: %v", i+1, err)
		}
		cols[i] = col
	}
	return cols, nil
}

// QueryStream executes the statement with one set of bind arguments and
// returns a Rows iterator over the result batches — the prepared analogue
// of Client.QueryStream, sharing its response protocol.
func (s *Stmt) QueryStream(ctx context.Context, args ...any) (*Rows, error) {
	if s.closed || s.c.stmtClosePending(s.id) {
		// a pending deferred close means the owning PoolStmt was closed
		// while another goroutine held this connection
		return nil, ErrStmtClosed
	}
	if len(args) != s.nparams {
		return nil, core.Errorf(core.KindConstraint,
			"statement expects %d bind parameter(s), got %d", s.nparams, len(args))
	}
	cols, err := bindArgCols(args)
	if err != nil {
		return nil, err
	}
	// Keeping s.id out of the flush turns a close deferred since the check
	// above into ErrStmtClosed too: a slot queued for release is never
	// executed.
	return s.c.start(ctx, MsgExecStmt, EncodeExecStmt(s.id, cols), s.id)
}

// Query executes the statement and returns the status message and the
// fully materialized result table.
func (s *Stmt) Query(ctx context.Context, args ...any) (string, *storage.Table, error) {
	rows, err := s.QueryStream(ctx, args...)
	if err != nil {
		return "", nil, err
	}
	return rows.ReadAll()
}

// Exec executes the statement for its side effects, returning the status
// message.
func (s *Stmt) Exec(ctx context.Context, args ...any) (string, error) {
	rows, err := s.QueryStream(ctx, args...)
	if err != nil {
		return "", err
	}
	return rows.discard()
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

// PoolStmt is a pool-aware prepared statement: one logical statement that
// transparently re-prepares itself on whichever healthy connection the
// pool hands back. The per-connection statement handles are cached, so a
// stable pool settles into zero re-prepares; when the pool retires a
// connection (health check, churn), the next execution on its replacement
// prepares once and proceeds. Safe for concurrent use.
type PoolStmt struct {
	pool    *Pool
	sql     string
	nparams int

	mu       sync.Mutex
	prepared map[*Client]*Stmt
	closed   bool
}

// Prepare builds a pool-aware prepared statement, eagerly preparing on one
// connection so bad SQL fails here rather than at first execution.
func (p *Pool) Prepare(ctx context.Context, sql string) (*PoolStmt, error) {
	ps := &PoolStmt{pool: p, sql: sql, prepared: map[*Client]*Stmt{}}
	c, err := p.Get(ctx)
	if err != nil {
		return nil, err
	}
	defer p.Put(c)
	st, err := c.Prepare(ctx, sql)
	if err != nil {
		return nil, err
	}
	ps.nparams = st.nparams
	ps.prepared[c] = st
	return ps, nil
}

// SQL returns the statement's original text.
func (ps *PoolStmt) SQL() string { return ps.sql }

// NumParams reports how many bind arguments each execution needs.
func (ps *PoolStmt) NumParams() int { return ps.nparams }

// stmtFor returns the statement handle prepared on c, preparing it now if
// this connection has not seen the statement yet (pool churn). Dead
// connections' handles are pruned as a side effect.
func (ps *PoolStmt) stmtFor(ctx context.Context, c *Client) (*Stmt, error) {
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		return nil, ErrStmtClosed
	}
	for pc := range ps.prepared {
		if pc.Broken() {
			delete(ps.prepared, pc)
		}
	}
	st := ps.prepared[c]
	ps.mu.Unlock()
	if st != nil {
		return st, nil
	}
	// This connection has not seen the statement: pool churn forces a
	// re-prepare (the eager prepare in Pool.Prepare is not counted).
	ps.pool.reprepares.Add(1)
	st, err := c.Prepare(ctx, ps.sql)
	if err != nil {
		return nil, err
	}
	ps.mu.Lock()
	if ps.closed {
		// Close raced the prepare; free the fresh server-side slot with the
		// next operation on this connection.
		ps.mu.Unlock()
		c.deferCloseStmt(st.id)
		return nil, ErrStmtClosed
	}
	ps.prepared[c] = st
	ps.mu.Unlock()
	return st, nil
}

// QueryStream checks out a connection (re-preparing there if needed) and
// starts a streaming execution on it. Checkin is Pool.stream's, as for an
// ad-hoc query. ctx must be non-nil.
func (ps *PoolStmt) QueryStream(ctx context.Context, args ...any) (*Rows, error) {
	return ps.pool.stream(ctx, func(ctx context.Context, c *Client) (*Rows, error) {
		st, err := ps.stmtFor(ctx, c)
		if err != nil {
			return nil, err
		}
		return st.QueryStream(ctx, args...)
	})
}

// Query is QueryStream with the result fully materialized.
func (ps *PoolStmt) Query(ctx context.Context, args ...any) (string, *storage.Table, error) {
	rows, err := ps.QueryStream(ctx, args...)
	if err != nil {
		return "", nil, err
	}
	return rows.ReadAll()
}

// Exec is Query for executions whose rows the caller does not need.
func (ps *PoolStmt) Exec(ctx context.Context, args ...any) (string, error) {
	rows, err := ps.QueryStream(ctx, args...)
	if err != nil {
		return "", err
	}
	return rows.discard()
}

// Close drops the per-connection handles and queues their server-side
// slots for release: the connections may be checked out by other
// goroutines right now, so each close is deferred onto its connection and
// flushed by the next operation that exclusively holds it. Slots on
// retired connections are already gone (the server tears the statement
// table down with the session).
func (ps *PoolStmt) Close() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.closed {
		return nil
	}
	ps.closed = true
	for c, st := range ps.prepared {
		if !c.Broken() {
			c.deferCloseStmt(st.id)
		}
	}
	ps.prepared = nil
	return nil
}

package wire

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// Pool is a bounded connection pool over DialContext. Checkouts are
// health-checked: broken connections are discarded at checkin, and
// connections idle for idlePingAfter or longer are pinged before being
// handed out. A checkout is one attempt: a failed dial or a shed
// statement surfaces to the caller as it is. All methods are safe for
// concurrent use.
type Pool struct {
	params ConnParams
	size   int

	sem  chan struct{}    // bounds open+checked-out connections
	idle chan *pooledConn // open connections between checkouts

	mu     sync.Mutex
	closed bool

	waits       atomic.Int64
	dials       atomic.Int64
	discards    atomic.Int64
	healthFails atomic.Int64
}

// idlePingAfter is how long a connection may sit idle before a checkout
// verifies it with a Ping.
const idlePingAfter = 30 * time.Second

// pooledConn pairs a connection with its idle stamp.
type pooledConn struct {
	c         *Client
	idleSince time.Time
}

// PoolStats is a snapshot of pool activity.
type PoolStats struct {
	Size     int   // configured bound
	Idle     int   // open connections awaiting checkout
	InUse    int   // connections currently checked out
	Waits    int64 // checkouts that blocked on the bound
	Dials    int64 // connections opened over the pool's lifetime
	Discards int64 // connections dropped for any reason
	// HealthCheckFailures counts connections that failed a checkout or
	// checkin health check (broken transport or failed idle ping) — a
	// subset of Discards, which also counts idle-overflow and close-time
	// retirements.
	HealthCheckFailures int64
	// Retries is always zero: the pool makes one attempt per checkout. It
	// remains only because the benchmark's wire.retry_total reads it.
	Retries int64
}

// NewPool creates a pool of at most size connections to params.
// Connections are opened lazily, on checkout.
func NewPool(params ConnParams, size int) *Pool {
	if size < 1 {
		size = 1
	}
	return &Pool{
		params: params,
		size:   size,
		sem:    make(chan struct{}, size),
		idle:   make(chan *pooledConn, size),
	}
}

// Get checks a healthy connection out of the pool, dialing a fresh one when
// none is idle. It blocks while the pool is at its bound until a connection
// is checked in or ctx is done. A failed dial is returned as it is, not
// retried. Every successful Get must be paired with a Put. ctx must be
// non-nil.
func (p *Pool) Get(ctx context.Context) (*Client, error) {
	if err := p.admit(ctx); err != nil {
		return nil, err
	}
	select {
	case p.sem <- struct{}{}:
	default:
		p.waits.Add(1)
		select {
		case p.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, p.admit(ctx) // ctx is done, so admit refuses
		}
	}
	// Slot held. A wait at the bound may have outlived a Close or the
	// caller's context: check both again before an idle connection is
	// pinged under a dead context or a closed pool dials.
	if err := p.admit(ctx); err != nil {
		<-p.sem
		return nil, err
	}
	for {
		select {
		case pc := <-p.idle:
			if c := p.vet(ctx, pc); c != nil {
				return c, nil
			}
		default:
			c, err := DialContext(ctx, p.params)
			if err != nil {
				<-p.sem
				return nil, err
			}
			p.dials.Add(1)
			return c, nil
		}
	}
}

// admit refuses a checkout from a closed pool or under a done context.
func (p *Pool) admit(ctx context.Context) error {
	if p.isClosed() {
		return core.Errorf(core.KindIO, "pool is closed")
	}
	if err := ctx.Err(); err != nil {
		// The caller gave up: a cancellation, not an IO failure — the pool
		// itself is healthy.
		return core.Wrapf(core.KindCancelled, err, "pool checkout: %v", err)
	}
	return nil
}

// vet health-checks an idle connection at checkout, returning nil (and
// retiring it) when it fails.
func (p *Pool) vet(ctx context.Context, pc *pooledConn) *Client {
	if pc.c.Broken() {
		p.healthFails.Add(1)
		p.retire(pc)
		return nil
	}
	if time.Since(pc.idleSince) >= idlePingAfter {
		if err := pc.c.Ping(ctx); err != nil {
			p.healthFails.Add(1)
			p.retire(pc)
			return nil
		}
	}
	return pc.c
}

// Put checks a connection back in. Broken connections are closed and their
// slot freed; the next Get dials a replacement.
func (p *Pool) Put(c *Client) {
	pc := &pooledConn{c: c, idleSince: time.Now()}
	if c.Broken() || p.isClosed() {
		if c.Broken() {
			p.healthFails.Add(1)
		}
		p.retire(pc)
		<-p.sem
		return
	}
	select {
	case p.idle <- pc:
		// A Close may have drained the idle set between our check and the
		// push; re-check so the connection is not stranded open.
		if p.isClosed() {
			select {
			case pc2 := <-p.idle:
				p.retire(pc2)
			default:
			}
		}
	default:
		p.retire(pc)
	}
	<-p.sem
}

func (p *Pool) retire(pc *pooledConn) {
	p.discards.Add(1)
	_ = pc.c.Close()
}

// QueryStream checks out a connection and starts a streaming query on it.
// The connection is checked back in when the returned Rows is fully
// consumed or Closed, or at once if the query fails to start. A Rows
// obtained here must not be abandoned, or its connection stays checked
// out. ctx must be non-nil.
func (p *Pool) QueryStream(ctx context.Context, sql string) (*Rows, error) {
	c, err := p.Get(ctx)
	if err != nil {
		return nil, err
	}
	rows, err := c.QueryStream(ctx, sql)
	if err != nil {
		p.Put(c)
		return nil, err
	}
	rows.pool = p
	return rows, nil
}

// Query is QueryStream with the result fully materialized.
func (p *Pool) Query(ctx context.Context, sql string) (string, *storage.Table, error) {
	return queryReply(p.QueryStream(ctx, sql))
}

// Exec is QueryStream for statements run for their side effects: it
// discards result rows and returns the status message.
func (p *Pool) Exec(ctx context.Context, sql string) (string, error) {
	return execReply(p.QueryStream(ctx, sql))
}

func (p *Pool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// StatsSnapshot snapshots pool activity. It never blocks: every source is
// a channel length or an atomic.
func (p *Pool) StatsSnapshot() PoolStats {
	return PoolStats{
		Size:                p.size,
		Idle:                len(p.idle),
		InUse:               len(p.sem),
		Waits:               p.waits.Load(),
		Dials:               p.dials.Load(),
		Discards:            p.discards.Load(),
		HealthCheckFailures: p.healthFails.Load(),
	}
}

// Close marks the pool closed and closes every idle connection. Checked-out
// connections are closed as they are Put back.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	for {
		select {
		case pc := <-p.idle:
			_ = pc.c.Close()
		default:
			return nil
		}
	}
}

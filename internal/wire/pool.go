package wire

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Pool is a bounded connection pool over DialContext. Checkouts are
// health-checked: broken connections are discarded at checkin, and idle
// connections past IdlePingAfter are pinged before being handed out.
// All methods are safe for concurrent use.
type Pool struct {
	// IdlePingAfter is how long a connection may sit idle before a checkout
	// verifies it with a Ping. Zero applies the 30s default; negative
	// disables idle pings.
	IdlePingAfter time.Duration

	params ConnParams
	opts   []DialOption
	size   int

	sem  chan struct{}    // bounds open+checked-out connections
	idle chan *pooledConn // open connections between checkouts

	mu     sync.Mutex
	closed bool

	// retry and br are installed by EnableRetry before first use; nil
	// means no client-side retry and no breaker.
	retry *RetryPolicy
	br    *breaker

	waits        atomic.Int64
	dials        atomic.Int64
	discards     atomic.Int64
	healthFails  atomic.Int64
	reprepares   atomic.Int64
	retries      atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
}

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
	// Reprepares counts PoolStmt executions that had to re-prepare their
	// SQL because the pool handed back a connection that had not seen the
	// statement yet (churn after retirement).
	Reprepares int64
	// Retries counts extra attempts made under the pool's RetryPolicy
	// (dial/handshake failures and retryable overload sheds).
	Retries int64
	// BreakerOpens counts closed-to-open transitions of the endpoint's
	// circuit breaker; BreakerFastFails counts checkouts it refused
	// without touching the network.
	BreakerOpens     int64
	BreakerFastFails int64
	// BytesRead/BytesWritten aggregate wire traffic of retired and
	// checked-in connections.
	BytesRead    int64
	BytesWritten int64
}

// NewPool creates a pool of at most size connections to params, dialed with
// opts. Connections are opened lazily, on checkout.
func NewPool(params ConnParams, size int, opts ...DialOption) *Pool {
	if size < 1 {
		size = 1
	}
	return &Pool{
		params: params,
		opts:   opts,
		size:   size,
		sem:    make(chan struct{}, size),
		idle:   make(chan *pooledConn, size),
	}
}

// Get checks a healthy connection out of the pool, dialing a fresh one when
// none is idle. It blocks while the pool is at its bound until a connection
// is checked in or ctx is cancelled. Every Get must be paired with a Put.
// Under an EnableRetry policy, transient dial/handshake failures are
// retried with jittered exponential backoff. ctx must be non-nil.
func (p *Pool) Get(ctx context.Context) (*Client, error) {
	var out *Client
	err := p.withConnRetry(ctx, func(c *Client) error { out = c; return nil })
	return out, err
}

// get is one checkout attempt, without retry.
func (p *Pool) get(ctx context.Context) (*Client, error) {
	if p.isClosed() {
		return nil, core.Errorf(core.KindIO, "pool is closed")
	}
	select {
	case p.sem <- struct{}{}:
	default:
		p.waits.Add(1)
		select {
		case p.sem <- struct{}{}:
		case <-ctx.Done():
			// The caller gave up waiting: a cancellation, not an IO
			// failure — the pool itself is healthy.
			return nil, core.Wrapf(core.KindCancelled, ctx.Err(), "pool checkout: %v", ctx.Err())
		}
	}
	// Token held: either reuse an idle connection or dial.
	for {
		select {
		case pc := <-p.idle:
			if c := p.vet(ctx, pc); c != nil {
				return c, nil
			}
		default:
			if br := p.br; br != nil && !br.allow(time.Now()) {
				<-p.sem
				return nil, core.Errorf(core.KindOverload,
					"circuit breaker open for %s; backing off", p.params.Addr())
			}
			c, err := DialContext(ctx, p.params, p.opts...)
			if br := p.br; br != nil {
				if core.IsCancelled(err) {
					br.abandon() // the caller gave up; the endpoint did not fail
				} else {
					br.record(err == nil, time.Now())
				}
			}
			if err != nil {
				<-p.sem
				return nil, err
			}
			p.dials.Add(1)
			return c, nil
		}
	}
}

// vet health-checks an idle connection at checkout, returning nil (and
// retiring it) when it fails.
func (p *Pool) vet(ctx context.Context, pc *pooledConn) *Client {
	if pc.c.Broken() {
		p.healthFails.Add(1)
		p.retire(pc)
		return nil
	}
	after := p.IdlePingAfter
	if after == 0 {
		after = 30 * time.Second
	}
	if after > 0 && time.Since(pc.idleSince) >= after {
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
	if c == nil {
		<-p.sem
		return
	}
	pc := &pooledConn{c: c, idleSince: time.Now()}
	p.account(pc)
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

// account folds a connection's byte counters into the pool totals. The
// high-water marks live on the Client (accessed only while it is held
// exclusively), so repeated checkins never double-count.
func (p *Pool) account(pc *pooledConn) {
	p.bytesRead.Add(pc.c.BytesRead - pc.c.poolCountedRead)
	p.bytesWritten.Add(pc.c.BytesWritten - pc.c.poolCountedWritten)
	pc.c.poolCountedRead = pc.c.BytesRead
	pc.c.poolCountedWritten = pc.c.BytesWritten
}

func (p *Pool) retire(pc *pooledConn) {
	p.discards.Add(1)
	_ = pc.c.Close()
}

// stream is the pool's one checkout-run-release path, ad-hoc and prepared
// alike: check a connection out, start a statement on it, and check it
// back in when the returned Rows is fully consumed or Closed — at once if
// the start fails. Under an EnableRetry policy, failures the server is
// known not to have executed (transient checkout errors, overload sheds)
// are retried with backoff. Retry covers only the start: once rows flow,
// failures surface to the consumer; a mid-statement transport failure is
// never retried.
func (p *Pool) stream(ctx context.Context, start func(context.Context, *Client) (*Rows, error)) (*Rows, error) {
	var rows *Rows
	err := p.withConnRetry(ctx, func(c *Client) error {
		r, err := start(ctx, c)
		if err != nil {
			p.Put(c)
			return err
		}
		r.pool = p
		rows = r
		return nil
	})
	return rows, err
}

// QueryStream checks out a connection and starts a streaming query on it
// (see stream for checkin and retry). A Rows obtained here must not be
// abandoned, or its connection stays checked out. ctx must be non-nil.
func (p *Pool) QueryStream(ctx context.Context, sql string) (*Rows, error) {
	return p.stream(ctx, func(ctx context.Context, c *Client) (*Rows, error) {
		return c.QueryStream(ctx, sql)
	})
}

// Query is QueryStream with the result fully materialized.
func (p *Pool) Query(ctx context.Context, sql string) (string, *storage.Table, error) {
	rows, err := p.QueryStream(ctx, sql)
	if err != nil {
		return "", nil, err
	}
	return rows.ReadAll()
}

// Exec is QueryStream for statements run for their side effects: it
// discards result rows and returns the status message.
func (p *Pool) Exec(ctx context.Context, sql string) (string, error) {
	rows, err := p.QueryStream(ctx, sql)
	if err != nil {
		return "", err
	}
	return rows.discard()
}

func (p *Pool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// StatsSnapshot snapshots pool activity. Byte totals cover checked-in
// connections; traffic of a connection currently checked out is folded
// in at its next checkin. It never blocks: every source is a channel
// length or an atomic.
func (p *Pool) StatsSnapshot() PoolStats {
	st := PoolStats{
		Size:                p.size,
		Idle:                len(p.idle),
		InUse:               len(p.sem),
		Waits:               p.waits.Load(),
		Dials:               p.dials.Load(),
		Discards:            p.discards.Load(),
		HealthCheckFailures: p.healthFails.Load(),
		Reprepares:          p.reprepares.Load(),
		Retries:             p.retries.Load(),
		BytesRead:           p.bytesRead.Load(),
		BytesWritten:        p.bytesWritten.Load(),
	}
	if br := p.br; br != nil {
		st.BreakerOpens = br.opens.Load()
		st.BreakerFastFails = br.fastFails.Load()
	}
	return st
}

// RegisterObs registers the pool's stats on reg as pool_* gauges and
// counters, all read at scrape time from StatsSnapshot. Register at most
// one pool per registry (metric names are process-global).
func (p *Pool) RegisterObs(reg *obs.Registry) {
	reg.GaugeFunc("pool_size", "Configured connection bound of the pool.",
		func() float64 { return float64(p.StatsSnapshot().Size) })
	reg.GaugeFunc("pool_idle", "Open pool connections awaiting checkout.",
		func() float64 { return float64(p.StatsSnapshot().Idle) })
	reg.GaugeFunc("pool_in_use", "Pool connections currently checked out.",
		func() float64 { return float64(p.StatsSnapshot().InUse) })
	reg.CounterFunc("pool_waits_total", "Checkouts that blocked on the pool bound.",
		func() float64 { return float64(p.StatsSnapshot().Waits) })
	reg.CounterFunc("pool_dials_total", "Connections the pool opened over its lifetime.",
		func() float64 { return float64(p.StatsSnapshot().Dials) })
	reg.CounterFunc("pool_discards_total", "Pool connections dropped for any reason.",
		func() float64 { return float64(p.StatsSnapshot().Discards) })
	reg.CounterFunc("pool_health_check_failures_total", "Pool connections that failed a checkout or checkin health check.",
		func() float64 { return float64(p.StatsSnapshot().HealthCheckFailures) })
	reg.CounterFunc("pool_reprepares_total", "Prepared statements re-prepared after pool connection churn.",
		func() float64 { return float64(p.StatsSnapshot().Reprepares) })
	reg.CounterFunc("pool_retries_total", "Extra attempts made under the pool's retry policy.",
		func() float64 { return float64(p.StatsSnapshot().Retries) })
	reg.CounterFunc("pool_breaker_opens_total", "Closed-to-open transitions of the endpoint circuit breaker.",
		func() float64 { return float64(p.StatsSnapshot().BreakerOpens) })
	reg.CounterFunc("pool_breaker_fast_fails_total", "Checkouts the open circuit breaker refused without dialing.",
		func() float64 { return float64(p.StatsSnapshot().BreakerFastFails) })
	reg.CounterFunc("pool_bytes_read_total", "Wire bytes read by pool connections (folded in at checkin).",
		func() float64 { return float64(p.StatsSnapshot().BytesRead) })
	reg.CounterFunc("pool_bytes_written_total", "Wire bytes written by pool connections (folded in at checkin).",
		func() float64 { return float64(p.StatsSnapshot().BytesWritten) })
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

package wire

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// RetryPolicy configures a Pool's client-side resilience for idempotent
// operations: jittered exponential backoff on failures the server is
// known not to have executed — transient dial/handshake errors and
// retryable overload sheds — plus a small circuit breaker per endpoint
// that fails checkouts fast while the endpoint is down. A mid-operation
// transport failure is never retried: the statement may have executed.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation (first
	// attempt included). Values below 2 disable retry (the breaker, when
	// enabled, still applies).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it. Zero applies 10ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Zero applies 1s.
	MaxBackoff time.Duration
	// BreakerThreshold is how many consecutive dial/handshake failures
	// open the breaker. Zero applies 5; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fails checkouts fast
	// before admitting a single probe dial. Zero applies 1s.
	BreakerCooldown time.Duration
}

// EnableRetry installs the policy on the pool. Call before the first
// Get: the serving goroutines read the policy without synchronization.
func (p *Pool) EnableRetry(rp RetryPolicy) {
	if rp.BaseBackoff <= 0 {
		rp.BaseBackoff = 10 * time.Millisecond
	}
	if rp.MaxBackoff <= 0 {
		rp.MaxBackoff = time.Second
	}
	p.retry = &rp
	if rp.BreakerThreshold >= 0 {
		threshold := rp.BreakerThreshold
		if threshold == 0 {
			threshold = 5
		}
		cooldown := rp.BreakerCooldown
		if cooldown <= 0 {
			cooldown = time.Second
		}
		p.br = &breaker{threshold: threshold, cooldown: cooldown}
	}
}

// withConnRetry runs one checkout-plus-operation under the pool's retry
// policy. op owns the connection it receives (it must Put it back or
// arrange a deferred release). Checkout failures retry on transient
// transport and overload errors; op failures retry only when
// core.Retryable reports the server never executed the request.
func (p *Pool) withConnRetry(ctx context.Context, op func(c *Client) error) error {
	attempts := 1
	if p.retry != nil && p.retry.MaxAttempts > 1 {
		attempts = p.retry.MaxAttempts
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			p.retries.Add(1)
			if serr := p.sleepBackoff(ctx, i-1); serr != nil {
				return err // the last real failure, not the bare ctx error
			}
		}
		var c *Client
		c, err = p.get(ctx)
		if err != nil {
			if !p.canRetryDial(ctx, err) {
				return err
			}
			continue
		}
		err = op(c)
		if err == nil {
			return nil
		}
		if !core.Retryable(err) || ctx.Err() != nil {
			return err
		}
	}
	return err
}

// canRetryDial classifies a checkout failure: dial and handshake happen
// strictly before any statement, so transport (KindIO) and overload
// (KindOverload — a MaxConns rejection or an open breaker) failures are
// safe to retry, unless the caller's context is done or the pool closed.
func (p *Pool) canRetryDial(ctx context.Context, err error) bool {
	if ctx.Err() != nil || p.isClosed() {
		return false
	}
	switch core.KindOf(err) {
	case core.KindIO, core.KindOverload:
		return true
	}
	return false
}

// sleepBackoff waits out retry n's backoff: exponential growth from
// BaseBackoff capped at MaxBackoff, with equal jitter (half fixed, half
// random) so synchronized clients do not re-stampede a recovering
// server.
func (p *Pool) sleepBackoff(ctx context.Context, n int) error {
	rp := p.retry
	if n > 20 {
		n = 20 // past this the shift saturates MaxBackoff anyway
	}
	d := rp.BaseBackoff << uint(n)
	if d <= 0 || d > rp.MaxBackoff {
		d = rp.MaxBackoff
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// breaker is a per-endpoint circuit breaker over dial outcomes. Closed
// until threshold consecutive failures; then open for cooldown, failing
// checkouts fast without touching the network; then half-open, admitting
// one probe dial whose outcome closes or re-opens it.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	fails     int
	openUntil time.Time
	probing   bool

	opens     atomic.Int64
	fastFails atomic.Int64
}

// allow reports whether a dial may proceed now. A refusal is a fast
// fail; an admission while open is the half-open probe.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fails < b.threshold {
		return true
	}
	if now.Before(b.openUntil) || b.probing {
		b.fastFails.Add(1)
		return false
	}
	b.probing = true
	return true
}

// abandon withdraws a dial that ended without an outcome — its caller's
// context ended first, which says nothing about the endpoint. The
// failure count is untouched; a half-open probe slot is handed on.
func (b *breaker) abandon() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// record feeds one dial outcome back.
func (b *breaker) record(ok bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if ok {
		b.fails = 0
		return
	}
	b.fails++
	if b.fails >= b.threshold {
		if b.fails == b.threshold {
			b.opens.Add(1)
		}
		b.openUntil = now.Add(b.cooldown)
	}
}

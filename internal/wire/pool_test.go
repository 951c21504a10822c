package wire

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
)

// backdateIdle makes the pool's one idle connection look idle for longer
// than idlePingAfter, so the next checkout pings it, and returns it.
func backdateIdle(t *testing.T, pool *Pool) *pooledConn {
	t.Helper()
	select {
	case pc := <-pool.idle:
		pc.idleSince = time.Now().Add(-2 * idlePingAfter)
		pool.idle <- pc
		return pc
	default:
		t.Fatal("no idle connection to backdate")
		return nil
	}
}

// warmPool is a pool of one whose connection has been dialed and checked
// back in.
func warmPool(t *testing.T) *Pool {
	t.Helper()
	_, params := startTestServer(t)
	pool := NewPool(params, 1)
	t.Cleanup(func() { pool.Close() })
	c, err := pool.Get(background())
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(c)
	return pool
}

// TestPoolCheckoutWaitingThroughCloseIsRefused: a checkout blocked at the
// bound when the pool closes must not dial once the slot frees — the pool
// is closed, and a connection handed out now would outlive it.
func TestPoolCheckoutWaitingThroughCloseIsRefused(t *testing.T) {
	_, params := startTestServer(t)
	pool := NewPool(params, 1)
	held, err := pool.Get(background())
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		c   *Client
		err error
	}
	got := make(chan result, 1)
	go func() {
		c, err := pool.Get(background())
		got <- result{c, err}
	}()
	for deadline := time.Now().Add(5 * time.Second); pool.StatsSnapshot().Waits == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second checkout never blocked at the bound")
		}
		time.Sleep(time.Millisecond)
	}
	pool.Close()
	pool.Put(held)
	var r result
	select {
	case r = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("waiting checkout hung after Close and Put")
	}
	if r.err == nil {
		r.c.Close()
		t.Fatal("a checkout that waited through Close got a connection")
	}
	if core.KindOf(r.err) != core.KindIO {
		t.Fatalf("waiting checkout = %v (kind %v), want the closed-pool KindIO", r.err, core.KindOf(r.err))
	}
	if st := pool.StatsSnapshot(); st.Dials != 1 || st.InUse != 0 {
		t.Fatalf("closed pool dialed or kept its slot: %+v", st)
	}
}

// TestPoolCancelledCheckoutSparesIdleConnection: a checkout whose context
// is already done fails as a cancellation before it touches the idle set.
// Pinging a connection past idlePingAfter under that context would poison
// it, and the pool would retire a healthy connection as a health failure.
func TestPoolCancelledCheckoutSparesIdleConnection(t *testing.T) {
	pool := warmPool(t)
	backdateIdle(t, pool)
	ctx, cancel := context.WithCancel(background())
	cancel()
	if c, err := pool.Get(ctx); core.KindOf(err) != core.KindCancelled {
		if err == nil {
			pool.Put(c)
		}
		t.Fatalf("checkout under a done context = %v, want KindCancelled", err)
	}
	if st := pool.StatsSnapshot(); st.Idle != 1 || st.InUse != 0 || st.Discards != 0 || st.HealthCheckFailures != 0 {
		t.Fatalf("cancelled checkout cost the idle connection: %+v", st)
	}
}

// TestPoolIdlePingReusesLiveConnection: a connection idle past
// idlePingAfter is pinged at checkout and, alive, handed out again.
func TestPoolIdlePingReusesLiveConnection(t *testing.T) {
	pool := warmPool(t)
	pc := backdateIdle(t, pool)
	written := pc.c.BytesWritten
	c, err := pool.Get(background())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Put(c)
	if c != pc.c {
		t.Fatal("checkout did not reuse the live idle connection")
	}
	if c.BytesWritten == written {
		t.Fatal("checkout did not ping the connection idle past idlePingAfter")
	}
	if st := pool.StatsSnapshot(); st.Dials != 1 || st.HealthCheckFailures != 0 {
		t.Fatalf("live idle connection was replaced: %+v", st)
	}
}

// TestPoolIdlePingRetiresDeadConnection: a connection idle past
// idlePingAfter whose socket died fails its ping, is retired as a health
// failure, and the checkout dials a replacement.
func TestPoolIdlePingRetiresDeadConnection(t *testing.T) {
	pool := warmPool(t)
	pc := backdateIdle(t, pool)
	pc.c.nc.Close() // the socket dies without the Client noticing
	c, err := pool.Get(background())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Put(c)
	if c == pc.c {
		t.Fatal("checkout handed out the dead idle connection")
	}
	if st := pool.StatsSnapshot(); st.Dials != 2 || st.HealthCheckFailures != 1 {
		t.Fatalf("dead idle connection was not retired and replaced: %+v", st)
	}
}

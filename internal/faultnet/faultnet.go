// Package faultnet wraps net.Conn and net.Listener with injected faults
// for chaos testing: added latency, partial writes, connection resets,
// stalls, and byte corruption. Every fault decision is drawn from a PRNG
// seeded explicitly by the test, so a failing run reproduces from its
// logged seed. The package never fires faults unless asked: the zero
// Plan is a transparent pass-through.
//
// Two integration seams cover both directions of the wire protocol:
//
//   - Listener wraps a server's accepted connections, so the server
//     experiences misbehaving clients (wire.Server.ServeListener takes
//     the wrapped listener directly).
//   - Proxy interposes on the path to a healthy server, so a client
//     pool experiences a misbehaving network (point wire.Pool at
//     Proxy.Addr).
package faultnet

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjectedReset is returned by a faulted connection when the plan
// decided to kill it. The underlying socket is closed too, so the peer
// observes a real EOF/reset rather than a polite shutdown.
var ErrInjectedReset = errors.New("faultnet: injected connection reset")

// Plan configures which faults fire and how often. Probabilities are
// per I/O operation in [0,1]; zero disables that fault. A Plan is a
// template: each connection derives its own PRNG from Seed plus a
// per-connection counter, so connections fault independently but the
// whole run replays from one number.
type Plan struct {
	// Seed feeds the deterministic PRNG. Two runs with the same Seed
	// and the same operation order draw the same faults.
	Seed int64

	// LatencyMax delays each Read and Write by a uniform random
	// duration in [0, LatencyMax]. Zero adds no latency.
	LatencyMax time.Duration

	// PartialWriteProb splits a Write into two chunks with a short
	// pause between them, exercising readers that assume frames
	// arrive whole.
	PartialWriteProb float64

	// ResetProb abruptly closes the connection before the operation,
	// returning ErrInjectedReset to the local caller and a hard
	// EOF/reset to the peer.
	ResetProb float64

	// StallProb freezes the operation for StallFor before proceeding —
	// long enough to trip read deadlines and drain timeouts without
	// ever delivering an error.
	StallProb float64

	// StallFor is the stall duration; zero with StallProb set applies
	// one second.
	StallFor time.Duration

	// CorruptProb flips one random bit in the data of a Read,
	// exercising the frame decoder's error paths. Corruption applies
	// to inbound bytes only so the fault is attributable.
	CorruptProb float64
}

// enabled reports whether any fault can ever fire.
func (p Plan) enabled() bool {
	return p.LatencyMax > 0 || p.PartialWriteProb > 0 || p.ResetProb > 0 ||
		p.StallProb > 0 || p.CorruptProb > 0
}

// Wrap returns c with the plan's faults injected on every Read and
// Write. A plan with no faults returns c unchanged.
func Wrap(c net.Conn, plan Plan) net.Conn {
	return wrapSeeded(c, plan, plan.Seed)
}

func wrapSeeded(c net.Conn, plan Plan, seed int64) net.Conn {
	if !plan.enabled() {
		return c
	}
	return &conn{Conn: c, plan: plan, rng: rand.New(rand.NewSource(seed))}
}

// conn injects the plan's faults around an underlying connection. The
// PRNG is guarded by a mutex because the wire protocol reads and writes
// from different goroutines.
type conn struct {
	net.Conn
	plan Plan
	mu   sync.Mutex
	rng  *rand.Rand
	dead atomic.Bool
}

// draw samples everything one operation needs under a single lock so
// concurrent readers and writers interleave at operation granularity
// and the sequence stays reproducible per connection.
type faultDraw struct {
	latency time.Duration
	reset   bool
	stall   bool
	partial bool
	corrupt bool
	bit     int // which bit to flip, scaled by buffer length at use
}

func (c *conn) draw() faultDraw {
	c.mu.Lock()
	defer c.mu.Unlock()
	var d faultDraw
	p := c.plan
	if p.LatencyMax > 0 {
		d.latency = time.Duration(c.rng.Int63n(int64(p.LatencyMax) + 1))
	}
	d.reset = p.ResetProb > 0 && c.rng.Float64() < p.ResetProb
	d.stall = p.StallProb > 0 && c.rng.Float64() < p.StallProb
	d.partial = p.PartialWriteProb > 0 && c.rng.Float64() < p.PartialWriteProb
	d.corrupt = p.CorruptProb > 0 && c.rng.Float64() < p.CorruptProb
	d.bit = c.rng.Int()
	return d
}

// apply runs the pre-operation faults: stall, then latency, then reset.
// It returns ErrInjectedReset when the connection was killed (now or by
// an earlier operation).
func (c *conn) apply(d faultDraw) error {
	if c.dead.Load() {
		return ErrInjectedReset
	}
	if d.stall {
		f := c.plan.StallFor
		if f <= 0 {
			f = time.Second
		}
		time.Sleep(f)
	}
	if d.latency > 0 {
		time.Sleep(d.latency)
	}
	if d.reset {
		c.dead.Store(true)
		_ = c.Conn.Close()
		return ErrInjectedReset
	}
	return nil
}

func (c *conn) Read(p []byte) (int, error) {
	d := c.draw()
	if err := c.apply(d); err != nil {
		return 0, err
	}
	n, err := c.Conn.Read(p)
	if n > 0 && d.corrupt {
		bit := d.bit % (n * 8)
		p[bit/8] ^= 1 << (bit % 8)
	}
	return n, err
}

func (c *conn) Write(p []byte) (int, error) {
	d := c.draw()
	if err := c.apply(d); err != nil {
		return 0, err
	}
	if d.partial && len(p) > 1 {
		cut := 1 + d.bit%(len(p)-1)
		n, err := c.Conn.Write(p[:cut])
		if err != nil {
			return n, err
		}
		time.Sleep(time.Millisecond)
		m, err := c.Conn.Write(p[cut:])
		return n + m, err
	}
	return c.Conn.Write(p)
}

func (c *conn) Close() error {
	c.dead.Store(true)
	return c.Conn.Close()
}

// Listener wraps accepted connections with the plan's faults. Each
// accepted connection gets an independent PRNG derived from the plan's
// seed and an accept counter, so one connection's traffic pattern does
// not perturb another's fault sequence.
func Listener(ln net.Listener, plan Plan) net.Listener {
	return &listener{Listener: ln, plan: plan}
}

type listener struct {
	net.Listener
	plan  Plan
	count atomic.Int64
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	n := l.count.Add(1)
	return wrapSeeded(c, l.plan, l.plan.Seed+n*0x9e3779b9), nil
}

// Proxy is a TCP relay that applies a fault plan between clients and a
// healthy target server: dial Proxy.Addr instead of the server and the
// connection's client side experiences the plan's latency, resets,
// stalls, and corruption while the server stays clean. This is the seam
// for exercising client-side resilience (the pool's health checks)
// without touching server internals.
type Proxy struct {
	ln     net.Listener
	target string
	plan   Plan
	count  atomic.Int64
	closed atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// NewProxy starts a proxy on an ephemeral localhost port relaying to
// target with the plan's faults applied on the client-facing side.
func NewProxy(target string, plan Plan) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, plan: plan, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the address clients should dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		cc, err := p.ln.Accept()
		if err != nil {
			return
		}
		sc, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = cc.Close()
			continue
		}
		n := p.count.Add(1)
		fc := wrapSeeded(cc, p.plan, p.plan.Seed+n*0x6d2b79f5)
		p.track(fc, sc)
		p.wg.Add(2)
		go p.pipe(fc, sc)
		go p.pipe(sc, fc)
	}
}

func (p *Proxy) track(a, b net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conns[a] = struct{}{}
	p.conns[b] = struct{}{}
}

// pipe copies one direction until error, then severs both ends: a
// faulted half-connection should look like a dead socket, not a
// half-open one.
func (p *Proxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	_, _ = io.Copy(dst, src)
	_ = dst.Close()
	_ = src.Close()
	p.mu.Lock()
	delete(p.conns, dst)
	delete(p.conns, src)
	p.mu.Unlock()
}

// SeverAll hard-closes every live proxied connection, simulating a
// network partition mid-flight. The proxy keeps accepting new
// connections, so recovery paths can reconnect through it.
func (p *Proxy) SeverAll() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// Close stops accepting, severs every connection, and waits for the
// relay goroutines to drain.
func (p *Proxy) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	err := p.ln.Close()
	p.SeverAll()
	p.wg.Wait()
	return err
}

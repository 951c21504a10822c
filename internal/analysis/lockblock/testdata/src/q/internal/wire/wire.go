// Package wire exercises the lockblock analyzer inside a scoped path.
package wire

import (
	"net"
	"sync"

	"repro/internal/udfrt"
)

// WriteFrame stands in for the real frame writer; package-level functions
// with this name in internal/wire are classified as network IO.
func WriteFrame(c net.Conn, t byte, payload []byte) error { return nil }

// frameWriter mimics the per-connection writer whose methods hit the network.
type frameWriter struct{}

func (fw *frameWriter) writeFrame(t byte, payload []byte) error { return nil }

// Client mimics the wire client whose send/recv methods hit the network.
type Client struct {
	mu sync.Mutex
}

func (c *Client) send(t byte, payload []byte) error { return nil }

func (c *Client) recv() (byte, []byte, error) { return 0, nil, nil }

type session struct {
	mu sync.Mutex
	ch chan int
}

func (s *session) badSend(v int) {
	s.mu.Lock()
	s.ch <- v // want `channel send while holding s.mu`
	s.mu.Unlock()
}

func (s *session) badRecv() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want `channel receive while holding s.mu`
}

func (s *session) badRange() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range s.ch { // want `channel receive \(range\) while holding s.mu`
		_ = v
	}
}

func (s *session) badSelect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `blocking select while holding s.mu`
	case v := <-s.ch:
		_ = v
	}
}

// A select with a default clause never blocks.
func (s *session) goodSelect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-s.ch:
		_ = v
	default:
	}
}

// Releasing before the send is the fix the analyzer steers toward.
func (s *session) goodSend(v int) {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- v
}

func (s *session) badConnWrite(c net.Conn, buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.Write(buf) // want `net.Conn.Write while holding s.mu`
}

func (s *session) badFrame(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	WriteFrame(c, 1, nil) // want `WriteFrame \(network IO\) while holding s.mu`
}

func (s *session) badConnFrame(fw *frameWriter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fw.writeFrame(1, nil) // want `wire.frameWriter.writeFrame \(network IO\) while holding s.mu`
}

func (s *session) badUDF(fn udfrt.Callable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn.Call(nil) // want `Callable.Call \(user UDF code\) while holding s.mu`
}

func (c *Client) badRoundTrip() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.send(1, nil) // want `wire.Client.send \(network IO\) while holding c.mu`
}

// A deliberate serialization point carries the escape directive.
func (s *session) serializedWrite(c net.Conn, buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.Write(buf) //lockblock:ok the mutex exists to serialize frame writes
}

// A bare directive with no reason does not count as a suppression.
func (s *session) unreasonedDirective(c net.Conn, buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lockblock:ok
	c.Write(buf) // want `net.Conn.Write while holding s.mu`
}

type guarded struct {
	mu sync.RWMutex
	ch chan int
}

// A lock taken inside a branch is held for ops inside that branch, and the
// branch's lock set does not leak to statements after the branch.
func (g *guarded) branchScoped(flag bool) {
	if flag {
		g.mu.RLock()
		g.ch <- 1 // want `channel send while holding g.mu`
		g.mu.RUnlock()
	}
	g.ch <- 2
}

// A spawned goroutine does not hold its creator's locks; its body is
// checked separately with an empty set.
func (s *session) spawn() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- 1
	}()
}

package wire

import "time"

// dialConfig collects the knobs of the client surface. All fields have
// working defaults, so DialContext(ctx, params) alone connects.
type dialConfig struct {
	dialTimeout  time.Duration
	readTimeout  time.Duration // per-receive deadline; 0 = none
	writeTimeout time.Duration // per-send deadline; 0 = none
	keepAlive    time.Duration
	logf         func(format string, args ...any)
}

func defaultDialConfig() dialConfig {
	return dialConfig{
		dialTimeout: 10 * time.Second,
		keepAlive:   30 * time.Second,
	}
}

// DialOption customizes DialContext.
type DialOption func(*dialConfig)

// WithDialTimeout bounds the TCP connect (default 10s).
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.dialTimeout = d }
}

// WithReadTimeout applies a deadline to every receive on the connection.
// Zero (the default) means reads block until the context is cancelled.
func WithReadTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.readTimeout = d }
}

// WithWriteTimeout applies a deadline to every send on the connection.
func WithWriteTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.writeTimeout = d }
}

// WithKeepAlive sets the TCP keepalive period (default 30s; negative
// disables keepalives).
func WithKeepAlive(d time.Duration) DialOption {
	return func(c *dialConfig) { c.keepAlive = d }
}

// WithLogger routes connection-level log lines (dial, negotiation, broken
// connections) to logf. Default: silent.
func WithLogger(logf func(format string, args ...any)) DialOption {
	return func(c *dialConfig) { c.logf = logf }
}

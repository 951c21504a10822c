package wire

import "time"

// keepAlive is the TCP keepalive period of every client connection.
const keepAlive = 30 * time.Second

// dialConfig collects the knobs of the client surface. All fields have
// working defaults, so DialContext(ctx, params) alone connects.
type dialConfig struct {
	dialTimeout time.Duration
}

func defaultDialConfig() dialConfig {
	return dialConfig{dialTimeout: 10 * time.Second}
}

// DialOption customizes DialContext.
type DialOption func(*dialConfig)

// WithDialTimeout bounds the TCP connect (default 10s).
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.dialTimeout = d }
}

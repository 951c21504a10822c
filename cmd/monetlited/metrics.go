package main

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
	"repro/monetlite"
)

// queryLogSize is the capacity of the sys.query_log ring the server
// feeds when observability is on.
const queryLogSize = 256

// obsStack wires one registry through every layer of the serving stack
// and owns the lifecycle of the diagnostics HTTP listener.
type obsStack struct {
	Reg  *obs.Registry
	ln   net.Listener
	http *http.Server
}

// enableObs registers engine, wire, and (when durable) WAL instruments
// on a fresh registry and installs the query-log ring behind
// sys.query_log. Must run before the server starts listening: the
// layers read their metrics pointers without synchronization.
func enableObs(db *monetlite.DB, srv *monetlite.Server, mgr *wal.Manager, slowQueryMs int) *obsStack {
	reg := obs.NewRegistry()
	db.EnableObs(reg)
	db.QueryLog = obs.NewQueryLog(queryLogSize)
	srv.EnableObs(reg)
	srv.SlowQueryMs = slowQueryMs
	if mgr != nil {
		mgr.EnableObs(reg)
	}
	return &obsStack{Reg: reg}
}

// serve starts the diagnostics listener: /metrics in Prometheus text
// format plus the pprof handlers. An explicit mux — not DefaultServeMux —
// so nothing else a dependency registers leaks onto the port.
func (o *obsStack) serve(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", o.Reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	o.ln = ln
	o.http = &http.Server{Handler: mux}
	// Serve returns when shutdown closes the listener.
	go func() { _ = o.http.Serve(ln) }()
	return ln.Addr().String(), nil
}

// shutdown closes the diagnostics listener, bounded so a stuck scrape
// cannot stall process exit. Nil-safe, and safe when serve was never
// called (metrics off).
func (o *obsStack) shutdown() error {
	if o == nil || o.http == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return o.http.Shutdown(ctx)
}

// drainAndStop is the first half of the SIGTERM sequence: drain the
// query port, then take the diagnostics port down with it. The metrics
// listener must not outlive the drain — leaving it up reports a live
// process on a server that no longer serves queries, and keeps the
// process from releasing its ports.
func drainAndStop(srv *monetlite.Server, stack *obsStack) error {
	if err := srv.Close(); err != nil {
		return err
	}
	return stack.shutdown()
}

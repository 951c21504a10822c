// Package monetlite is the public face of the embedded MonetDB-like
// database this reproduction builds as its substrate: a columnar SQL engine
// with Python (PyLite) UDFs executed operator-at-a-time, sys.* meta tables
// that store UDF source code, loopback queries, and a TCP wire protocol.
//
// Typical embedded use:
//
//	db := monetlite.NewDB()
//	conn := monetlite.Connect(db, "monetdb", "monetdb")
//	conn.Exec(`CREATE TABLE numbers (i INTEGER)`)
//
// Typical served use:
//
//	srv := monetlite.NewServer("demo", "monetdb", "monetdb", db)
//	addr, _ := srv.Listen("127.0.0.1:50000")
//	cli, _ := monetlite.DialContext(ctx, monetlite.ConnParams{ ... })
package monetlite

import (
	"context"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wire"
)

// DB is an embedded database instance.
type DB = engine.DB

// Conn is an authenticated session against a DB (embedded use).
type Conn = engine.Conn

// Result is the outcome of one statement.
type Result = engine.Result

// Table is a materialized result set or stored table.
type Table = storage.Table

// Column is one typed column of a Table.
type Column = storage.Column

// Mode selects the UDF processing model (paper §2.4).
type Mode = engine.Mode

// Processing models.
const (
	// ModeOperatorAtATime is MonetDB's model: one UDF call per query,
	// whole columns in.
	ModeOperatorAtATime = engine.ModeOperatorAtATime
	// ModeTupleAtATime is the Postgres/MySQL model: one UDF call per row.
	ModeTupleAtATime = engine.ModeTupleAtATime
)

// Server serves a DB over TCP.
type Server = wire.Server

// Client is a wire-protocol client session.
type Client = wire.Client

// Pool is a bounded, health-checked wire connection pool.
type Pool = wire.Pool

// RetryPolicy configures a Pool's client-side resilience
// (Pool.EnableRetry): jittered exponential backoff on failures the
// server is known not to have executed, plus a per-endpoint circuit
// breaker.
type RetryPolicy = wire.RetryPolicy

// Rows streams a wire result set batch-at-a-time.
type Rows = wire.Rows

// Stmt is an embedded prepared statement: SQL compiled once by
// Conn.Prepare, executed many times with bind arguments (`?` positional or
// `$n` numbered placeholders).
type Stmt = engine.Stmt

// ClientStmt is a prepared statement on one wire connection
// (Client.Prepare).
type ClientStmt = wire.Stmt

// PoolStmt is a pool-aware prepared statement (Pool.Prepare): it
// transparently re-prepares on whichever healthy connection the pool hands
// back.
type PoolStmt = wire.PoolStmt

// DialOption customizes DialContext (timeouts, keepalive, logger).
type DialOption = wire.DialOption

// ConnParams are the five connection parameters of the devUDF settings
// window (paper Fig. 2): host, port, database, user, password.
type ConnParams = wire.ConnParams

// ProtoV2 is the wire protocol version clients and servers speak; the
// handshake refuses anything older.
const ProtoV2 = wire.ProtoV2

// WithDialTimeout bounds the TCP connect (default 10s), re-exported from
// the wire layer.
var WithDialTimeout = wire.WithDialTimeout

// Registry collects metrics (counters, gauges, histograms) and serves
// them in Prometheus text format. Wire each layer in with DB.EnableObs,
// Server.EnableObs, and Pool.RegisterObs, then expose Registry.Handler.
type Registry = obs.Registry

// QueryLog is the ring buffer behind the sys.query_log virtual table;
// assign one to DB.QueryLog to record per-query span breakdowns.
type QueryLog = obs.QueryLog

// Trace carries one query's per-stage timings; embedded callers pass one
// in ExecOpts to Conn.ExecWith or Stmt.ExecWith to time their own
// statements.
type Trace = obs.Trace

// ExecOpts is the per-call value of Conn.ExecWith / Stmt.ExecWith:
// everything one statement carries besides its text and arguments, handed
// over directly with no context to allocate or search — its Interrupt, its
// Trace, the Invoke hook that runs its interpreter-backed UDF calls (the
// remote debugger's) and the Stdout its UDFs print to. ExecContext is the
// door for a context's cancellation alone. A UDF's loopback query runs under the same ExecOpts;
// the zero value runs a statement uninterruptible, untraced, undebugged and
// with UDF output discarded.
type ExecOpts = engine.ExecOpts

// Interrupt is a statement's cancellation signal: a done channel plus an
// optional deadline.
type Interrupt = engine.Interrupt

// Observability constructors and helpers, re-exported from the obs layer.
var (
	NewRegistry  = obs.NewRegistry
	NewQueryLog  = obs.NewQueryLog
	NewTrace     = obs.NewTrace
	AcquireTrace = obs.AcquireTrace
	ReleaseTrace = obs.ReleaseTrace
)

// NewDB creates an empty embedded database. Native Go UDFs register with
// DB.RegisterGoUDF; stored PYTHON UDFs arrive via CREATE FUNCTION ...
// LANGUAGE PYTHON. Both execute through the udfrt runtime registry.
func NewDB() *DB { return engine.NewDB() }

// Connect opens an embedded session with credentials (the password keys
// the encryption option of the extract function).
func Connect(db *DB, user, password string) *Conn {
	return &engine.Conn{DB: db, User: user, Password: password}
}

// NewServer creates a wire server exposing db as the named database with a
// single user account.
func NewServer(database, user, password string, db *DB) *Server {
	return wire.NewServer(database, user, password, db)
}

// DialContext connects and authenticates to a served database as a
// protocol v2 client. The context governs connect and handshake;
// per-operation contexts are passed to Query/Exec/QueryStream.
func DialContext(ctx context.Context, p ConnParams, opts ...DialOption) (*Client, error) {
	return wire.DialContext(ctx, p, opts...)
}

// NewPool creates a bounded connection pool over DialContext; connections
// are opened lazily and health-checked at checkout.
func NewPool(p ConnParams, size int, opts ...DialOption) *Pool {
	return wire.NewPool(p, size, opts...)
}

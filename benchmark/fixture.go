package main

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/monetlite"
)

var ctx = context.Background()

const (
	dbUser     = "monetdb"
	dbPassword = "monetdb"
	udfName    = "mean_deviation"
)

// buggyBody is the paper's Listing 4 body (no abs()), derived from the
// corrected one so the two differ in exactly that edit.
var buggyBody = strings.Replace(bench.MeanDeviationFixedBody, "abs(column[i] - mean)", "column[i] - mean", 1)

func udfBody(fixed bool) string {
	if fixed {
		return bench.MeanDeviationFixedBody
	}
	return buggyBody
}

func createMeanDeviation(body string) string {
	return "CREATE FUNCTION " + udfName + "(column INTEGER)\nRETURNS DOUBLE LANGUAGE PYTHON {\n    " +
		strings.ReplaceAll(body, "\n", "\n    ") + "\n};"
}

// node is one in-process database served by a real wire.Server on TCP
// loopback — a socket, not a link: there is no propagation delay and the
// client shares the server's cores.
type node struct {
	db     *monetlite.DB
	srv    *monetlite.Server
	params monetlite.ConnParams
	reg    *monetlite.Registry // traced pass only
	emb    *monetlite.Conn     // embedded session for set-up and replays
}

// newNode builds a database and its server without listening yet: obs must
// be enabled, and a WAL opened, before the first connection.
func newNode(traced bool) *node {
	db := monetlite.NewDB()
	db.FS = core.NewMemFS(nil)
	n := &node{db: db, srv: monetlite.NewServer("demo", dbUser, dbPassword, db)}
	n.emb = monetlite.Connect(db, dbUser, dbPassword)
	if traced {
		n.reg = monetlite.NewRegistry()
		db.EnableObs(n.reg)
		n.srv.EnableObs(n.reg)
		db.QueryLog = monetlite.NewQueryLog(1 << 14)
	}
	return n
}

func (n *node) base() *node { return n }

func (n *node) listen() error {
	addr, err := n.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return err
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return err
	}
	n.params = monetlite.ConnParams{Host: host, Port: port, Database: "demo", User: dbUser, Password: dbPassword}
	return nil
}

func (n *node) table(name string, cols ...*storage.Column) error {
	return n.db.RegisterTable(&storage.Table{Name: name, Cols: cols})
}

func (n *node) exec(sqls ...string) error {
	for _, sql := range sqls {
		if _, err := n.emb.Exec(sql); err != nil {
			return fmt.Errorf("setup %.40q: %w", sql, err)
		}
	}
	return nil
}

// phase is one traffic shape with its own server. warm runs a fixed number
// of stream blocks so caches, compiled UDFs and pools are hot; run executes
// the stream until the budget is spent and returns what it timed.
type phase interface {
	base() *node
	warm(rec *recorder)
	run(budget time.Duration, rec *recorder, tr *tracer) (ops int, wall time.Duration)
	close()
}

// fixture is the whole system under test for one run.
type fixture struct {
	seed   uint64
	traced bool
	ref    *reference
	data   *dataset
	phases [numPhases]phase
	wire   *wirePhase
	udf    *udfPhase
	dev    *devPhase
	ing    *ingestPhase
}

// setup generates the seeded data, starts the four servers, connects the
// clients and warms every phase. Its wall time, brought to nominal speed by
// the references run during the warm-up, is setup_s.
func setup(seed uint64, traced bool, ref *reference, dir string) (*fixture, error) {
	fx := &fixture{seed: seed, traced: traced, ref: ref, data: genDataset(seed)}
	builders := []func(*fixture) error{newWirePhase, newUDFPhase, newDevPhase,
		func(fx *fixture) error { return newIngestPhase(fx, dir) }}
	for _, build := range builders {
		if err := build(fx); err != nil {
			fx.close()
			return nil, err
		}
	}
	var warm recorder
	for _, p := range fx.phases {
		p.warm(&warm)
	}
	if warm.failed > 0 {
		fx.close()
		return nil, fmt.Errorf("%d of %d warm-up operations failed", warm.failed, warm.attempted)
	}
	return fx, nil
}

func (fx *fixture) close() {
	for _, p := range fx.phases {
		if p != nil {
			p.close()
		}
	}
}

// cursor walks one seeded stream, block after block, and remembers where a
// deadline cut it off, so position depends only on how many operations ran.
type cursor struct {
	seed   uint64
	stream int
	ref    *reference // run between operations; nil on the ingest reader
	block  int
	rest   []op // unread tail of the current block
}

func (c *cursor) next() op {
	if len(c.rest) == 0 {
		c.rest = genBlock(c.seed, c.stream, c.block)
		c.block++
	}
	o := c.rest[0]
	c.rest = c.rest[1:]
	return o
}

// driveN feeds do the next n operations.
func (c *cursor) driveN(n int, do func(op)) {
	for i := 0; i < n; i++ {
		do(c.next())
		c.ref.maybe()
	}
}

// drive feeds do until stop reports true, checked after every operation,
// and returns how many it ran.
func (c *cursor) drive(stop func() bool, do func(op)) int {
	for n := 1; ; n++ {
		do(c.next())
		c.ref.maybe()
		if stop() {
			return n
		}
	}
}

// driveFor feeds do until budget has passed and returns how many
// operations ran and how long they took.
func (c *cursor) driveFor(budget time.Duration, do func(op)) (int, time.Duration) {
	start := time.Now()
	n := c.drive(func() bool { return time.Since(start) >= budget }, do)
	return n, time.Since(start)
}

package devudf

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/monetlite"
)

func preparedClient(t *testing.T) *Client {
	t.Helper()
	params, _ := startServer(t,
		`CREATE TABLE nums (i INTEGER, s STRING)`,
		`INSERT INTO nums VALUES (1, 'a'), (2, 'b'), (3, 'a'), (4, 'c')`,
	)
	settings := DefaultSettings()
	settings.Connection = params
	c, err := Open(ctx, settings, WithFS(core.NewMemFS(nil)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClientQueryVariadic: the convenience path — bind arguments on the
// plain Query method route through a prepared statement.
func TestClientQueryVariadic(t *testing.T) {
	c := preparedClient(t)
	for want := int64(1); want <= 4; want++ {
		res, err := c.Query(ctx, `SELECT i FROM nums WHERE i = ?`, want)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tag != "SELECT 1" || res.Table.Cols[0].Ints[0] != want {
			t.Fatalf("bind %d: %q %v", want, res.Tag, res.Table.Cols[0].Ints)
		}
	}
	// argument-free calls still work (and return the new shape)
	res, err := c.Query(ctx, `SELECT count(*) AS n FROM nums`)
	if err != nil || res.Table.Cols[0].Ints[0] != 4 {
		t.Fatalf("%v %v", res, err)
	}
}

// TestClientQueryArgsClosesItsStatement: every Query with bind arguments
// prepares, executes and closes. The server holds at most 64 statements
// per connection and the pool has four connections, so 320 distinct texts
// from four goroutines are refused part-way unless each call gives its
// slot back.
func TestClientQueryArgsClosesItsStatement(t *testing.T) {
	c := preparedClient(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				want := int64(i%4 + 1)
				sql := fmt.Sprintf(`SELECT i FROM nums WHERE i = ? AND %d >= 0`, g*80+i)
				res, err := c.Query(ctx, sql, want)
				if err != nil {
					t.Errorf("goroutine %d query %d: %v", g, i, err)
					return
				}
				if res.Table.NumRows() != 1 || res.Table.Cols[0].Ints[0] != want {
					t.Errorf("goroutine %d query %d: wrong rows %v", g, i, res.Table.Cols[0].Ints)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestClientQueryArgsPreparesOnceAndClosesBeforeReturning: a parameterized
// Query prepares, executes and closes on one checkout. With two idle
// connections in the pool the server still sees exactly one prepare, and
// no statement is open on it once Query has returned.
func TestClientQueryArgsPreparesOnceAndClosesBeforeReturning(t *testing.T) {
	db := monetlite.NewDB()
	db.FS = core.NewMemFS(nil)
	if _, err := monetlite.Connect(db, "monetdb", "monetdb").ExecAll(
		`CREATE TABLE nums (i INTEGER); INSERT INTO nums VALUES (1), (2);`); err != nil {
		t.Fatal(err)
	}
	srv := monetlite.NewServer("demo", "monetdb", "monetdb", db)
	reg := monetlite.NewRegistry()
	srv.EnableObs(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	host, portStr, _ := net.SplitHostPort(addr)
	port, _ := strconv.Atoi(portStr)
	settings := DefaultSettings()
	settings.Connection = monetlite.ConnParams{Host: host, Port: port, Database: "demo", User: "monetdb", Password: "monetdb"}
	c, err := Open(ctx, settings, WithFS(core.NewMemFS(nil)), WithPoolSize(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Two idle connections: Get, Get, Put, Put.
	a, err := c.Pool().Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Pool().Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c.Pool().Put(a)
	c.Pool().Put(b)

	res, err := c.Query(ctx, `SELECT i FROM nums WHERE i = ?`, int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 1 || res.Table.Cols[0].Ints[0] != 1 {
		t.Fatalf("wrong rows %v", res.Table.Cols[0].Ints)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	sc, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Value("wire_messages_total", map[string]string{"type": "prepare"}); got != 1 {
		t.Errorf("server received %v prepares, want 1", got)
	}
	if n := srv.OpenStatements(); n != 0 {
		t.Errorf("server holds %d statements after Query returned, want 0", n)
	}
}

// TestClientQueryArgsCancelMidExec: cancelling a parameterized Query while
// the server executes it returns the typed cancellation and checks the
// poisoned connection back in; the next call runs on a fresh connection.
func TestClientQueryArgsCancelMidExec(t *testing.T) {
	params, db := startServer(t,
		`CREATE TABLE nums (i INTEGER)`,
		`INSERT INTO nums VALUES (1), (2), (3)`,
	)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	if err := db.RegisterGoUDF("hold_go", func(x []int64) []int64 {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return x
	}); err != nil {
		t.Fatal(err)
	}
	settings := DefaultSettings()
	settings.Connection = params
	c, err := Open(ctx, settings, WithFS(core.NewMemFS(nil)), WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cctx, cancel := context.WithCancel(ctx)
	go func() {
		<-started
		cancel()
	}()
	_, err = c.Query(cctx, `SELECT hold_go(i) AS v FROM nums WHERE i >= ?`, int64(0))
	close(release)
	if core.KindOf(err) != core.KindCancelled {
		t.Fatalf("want the typed cancellation, got %v", err)
	}
	if st := c.Pool().StatsSnapshot(); st.InUse != 0 || st.Discards != 1 {
		t.Fatalf("the cancelled checkout must be back and retired: %+v", st)
	}
	res, err := c.Query(ctx, `SELECT i FROM nums WHERE i >= ?`, int64(2))
	if err != nil {
		t.Fatalf("the call after the cancellation: %v", err)
	}
	if res.Table.NumRows() != 2 {
		t.Fatalf("got %d rows, want 2", res.Table.NumRows())
	}
	if st := c.Pool().StatsSnapshot(); st.Dials != 2 || st.InUse != 0 {
		t.Fatalf("the next call must dial a fresh connection: %+v", st)
	}
}

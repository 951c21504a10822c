package monetlite_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/monetlite"
)

func TestEmbeddedUse(t *testing.T) {
	db := monetlite.NewDB()
	db.FS = core.NewMemFS(nil)
	conn := monetlite.Connect(db, "monetdb", "monetdb")
	results, err := conn.ExecAll(`
CREATE TABLE t (i INTEGER, s STRING);
INSERT INTO t VALUES (1, 'one'), (2, 'two');
SELECT COUNT(*) AS n FROM t;
`)
	if err != nil {
		t.Fatal(err)
	}
	if n := results[2].Table.Cols[0].Ints[0]; n != 2 {
		t.Fatalf("count: %d", n)
	}
}

func TestServedUse(t *testing.T) {
	db := monetlite.NewDB()
	db.FS = core.NewMemFS(nil)
	srv := monetlite.NewServer("demo", "u", "p", db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	host, port := split(addr)
	cli, err := monetlite.DialContext(context.Background(), monetlite.ConnParams{
		Host: host, Port: port, Database: "demo", User: "u", Password: "p",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, _, err := cli.Query(context.Background(), `CREATE TABLE t (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
	msg, _, err := cli.Query(context.Background(), `INSERT INTO t VALUES (1), (2), (3)`)
	if err != nil || msg != "INSERT 3" {
		t.Fatalf("%q %v", msg, err)
	}
}

func TestPooledAndStreamingUse(t *testing.T) {
	db := monetlite.NewDB()
	db.FS = core.NewMemFS(nil)
	srv := monetlite.NewServer("demo", "u", "p", db)
	srv.StreamThreshold = 1 // stream every result to a v2 session
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	host, port := split(addr)
	ctx := context.Background()
	pool := monetlite.NewPool(monetlite.ConnParams{
		Host: host, Port: port, Database: "demo", User: "u", Password: "p",
	}, 2)
	defer pool.Close()
	if _, err := pool.Exec(ctx, `CREATE TABLE t (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Exec(ctx, `INSERT INTO t VALUES (1), (2), (3)`); err != nil {
		t.Fatal(err)
	}
	rows, err := pool.QueryStream(ctx, `SELECT i FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for rows.Next() {
		for _, v := range rows.Batch().Cols[0].Ints {
			sum += v
		}
	}
	if err := rows.Err(); err != nil || sum != 6 {
		t.Fatalf("%d %v", sum, err)
	}
	if !rows.Streaming() {
		t.Fatal("expected the chunked path")
	}
}

// TestPreparedUse exercises the prepared-statement surfaces through the
// public aliases: the embedded Stmt and a ClientStmt prepared on a
// connection checked out of a Pool.
func TestPreparedUse(t *testing.T) {
	db := monetlite.NewDB()
	db.FS = core.NewMemFS(nil)
	conn := monetlite.Connect(db, "monetdb", "monetdb")
	if _, err := conn.ExecAll(`
CREATE TABLE t (i INTEGER, s STRING);
INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three');
`); err != nil {
		t.Fatal(err)
	}
	var stmt *monetlite.Stmt
	stmt, err := conn.Prepare(`SELECT s FROM t WHERE i = ?`)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"one", "two", "three"} {
		res, err := stmt.Query(int64(i + 1))
		if err != nil || res.Table.Cols[0].Strs[0] != want {
			t.Fatalf("bind %d: %v %v", i+1, res, err)
		}
	}

	srv := monetlite.NewServer("demo", "monetdb", "monetdb", db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	host, port := split(addr)
	pool := monetlite.NewPool(monetlite.ConnParams{
		Host: host, Port: port, Database: "demo", User: "monetdb", Password: "monetdb",
	}, 2)
	defer pool.Close()
	ctx := context.Background()
	var cli *monetlite.Client
	cli, err = pool.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Put(cli)
	var cs *monetlite.ClientStmt
	cs, err = cli.Prepare(ctx, `SELECT i FROM t WHERE s = $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close(ctx)
	if _, tbl, err := cs.Query(ctx, "two"); err != nil || tbl.Cols[0].Ints[0] != 2 {
		t.Fatalf("%v %v", tbl, err)
	}
}

func TestModeString(t *testing.T) {
	if monetlite.ModeOperatorAtATime.String() != "operator-at-a-time" ||
		monetlite.ModeTupleAtATime.String() != "tuple-at-a-time" {
		t.Fatal("mode names")
	}
}

func split(addr string) (string, int) {
	i := strings.LastIndexByte(addr, ':')
	port := 0
	for _, ch := range addr[i+1:] {
		port = port*10 + int(ch-'0')
	}
	return addr[:i], port
}

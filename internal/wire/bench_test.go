package wire

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// BenchmarkWireRoundTrip times one request and its reply over TCP loopback
// against an in-process server, on one connection: a ping, a prepared
// range statement with three binds over a 64-row table, and the same
// statement as ad-hoc text. Client and server share the process, so B/op
// and allocs/op count both sides.
//
//	go test -run '^$' -bench BenchmarkWireRoundTrip -benchmem ./internal/wire
func BenchmarkWireRoundTrip(b *testing.B) {
	db := engine.NewDB()
	db.FS = core.NewMemFS(nil)
	conn := &engine.Conn{DB: db}
	var rows []string
	for i := 0; i < 64; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %d.5)", i, i))
	}
	for _, sql := range []string{
		`CREATE TABLE params (i INTEGER, f DOUBLE)`,
		`INSERT INTO params VALUES ` + strings.Join(rows, ", "),
	} {
		if _, err := conn.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
	srv := NewServer("demo", "monetdb", "secret", db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	host, port, _ := splitHostPort(addr)
	c, err := DialContext(background(), ConnParams{Host: host, Port: port, Database: "demo", User: "monetdb", Password: "secret"})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	st, err := c.Prepare(background(), `SELECT i,f FROM params WHERE i>=? AND i<? AND f<>?`)
	if err != nil {
		b.Fatal(err)
	}
	const adhoc = `SELECT i,f FROM params WHERE i>=8 AND i<12 AND f<>0.25`
	for _, leg := range []struct {
		name string
		do   func() error
	}{
		{"ping", func() error { return c.Ping(background()) }},
		{"prepared", func() error {
			_, _, err := st.Query(background(), int64(8), int64(12), 0.25)
			return err
		}},
		{"adhoc", func() error {
			_, _, err := c.Query(background(), adhoc)
			return err
		}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := leg.do(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

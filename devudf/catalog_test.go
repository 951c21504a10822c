package devudf

import (
	"net"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/monetlite"
)

// catalogAnswers are a real server's answers to listServerUDFs's two meta
// queries, for a catalog of one UDF with one parameter.
func catalogAnswers(t *testing.T) (funcs, args *storage.Table) {
	t.Helper()
	conn := monetlite.Connect(monetlite.NewDB(), "monetdb", "monetdb")
	if _, err := conn.Exec(`CREATE FUNCTION twice(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return x * 2
};`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		sql string
		dst **storage.Table
	}{
		{`SELECT id, name, func, language, is_table FROM sys.functions ORDER BY name`, &funcs},
		{`SELECT function_id, name, type, number, is_result FROM sys.function_args ORDER BY function_id, number`, &args},
	} {
		res, err := conn.Exec(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		*q.dst = res.Table
	}
	return funcs, args
}

// serveCatalog is a server that knows the handshake and the two meta
// queries and nothing else: it answers them with funcs and args.
func serveCatalog(t *testing.T, funcs, args *storage.Table) monetlite.ConnParams {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				if _, _, err := wire.ReadFrame(nc); err != nil {
					return
				}
				if wire.WriteFrame(nc, wire.MsgAuthOK, wire.EncodeAuthOK("catalog/2.0", wire.ProtoV2)) != nil {
					return
				}
				for {
					typ, payload, err := wire.ReadFrame(nc)
					if err != nil || typ != wire.MsgQuery {
						return
					}
					answer := funcs
					if strings.Contains(string(payload), "sys.function_args") {
						answer = args
					}
					if wire.WriteFrame(nc, wire.MsgResult, wire.EncodeResult("SELECT", answer)) != nil {
						return
					}
				}
			}()
		}
	}()
	addr := ln.Addr().(*net.TCPAddr)
	return monetlite.ConnParams{Host: "127.0.0.1", Port: addr.Port, Database: "demo", User: "monetdb", Password: "monetdb"}
}

// TestMalformedCatalogAnswerIsAProtocolError: listServerUDFs reads both
// meta answers by column name and type. An answer that lacks one of its
// columns, under that name or with that type, is a protocol error naming
// the column.
func TestMalformedCatalogAnswerIsAProtocolError(t *testing.T) {
	funcs, args := catalogAnswers(t)
	c := newClient(t, serveCatalog(t, funcs, args), "")
	if infos, err := c.ListServerUDFs(ctx); err != nil || len(infos) != 1 || len(infos[0].Params) != 1 {
		t.Fatalf("the answers as the server gives them: %+v, %v; want twice(x)", infos, err)
	}
	for _, tc := range []struct {
		name   string
		funcs  bool // break the sys.functions answer, else sys.function_args
		column string
		mutate func(tbl *storage.Table, i int)
	}{
		{"functions without language", true, "language", dropColumn},
		{"functions with id renamed", true, "id", renameColumn},
		{"functions with is_table as an integer", true, "is_table", retypeColumn},
		{"args without type", false, "type", dropColumn},
		{"args with function_id renamed", false, "function_id", renameColumn},
		{"args with name as an integer", false, "name", retypeColumn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			funcs, args := catalogAnswers(t)
			broken := args
			if tc.funcs {
				broken = funcs
			}
			tc.mutate(broken, slices.IndexFunc(broken.Cols, func(c *storage.Column) bool { return c.Name == tc.column }))
			c := newClient(t, serveCatalog(t, funcs, args), "")
			for _, op := range []struct {
				what string
				run  func() error
			}{
				{"ListServerUDFs", func() error { _, err := c.ListServerUDFs(ctx); return err }},
				{"ImportUDFs", func() error { _, err := c.ImportUDFs(ctx, "twice"); return err }},
			} {
				err := op.run()
				if core.KindOf(err) != core.KindProtocol || !strings.Contains(err.Error(), `"`+tc.column+`"`) {
					t.Errorf("%s: %v, want a protocol error naming %q", op.what, err, tc.column)
				}
			}
		})
	}
}

func dropColumn(tbl *storage.Table, i int) {
	tbl.Cols = append(tbl.Cols[:i:i], tbl.Cols[i+1:]...)
}

func renameColumn(tbl *storage.Table, i int) { tbl.Cols[i].Name += "_renamed" }

func retypeColumn(tbl *storage.Table, i int) {
	tbl.Cols[i] = &storage.Column{Name: tbl.Cols[i].Name, Typ: storage.TInt, Ints: make([]int64, tbl.NumRows())}
}

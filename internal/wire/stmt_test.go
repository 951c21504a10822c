package wire

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
)

func preparedFixture(t *testing.T) (*Server, ConnParams) {
	t.Helper()
	srv, params := startTestServer(t)
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sql := range []string{
		`CREATE TABLE nums (i INTEGER, f DOUBLE, s STRING)`,
		`INSERT INTO nums VALUES (1, 0.5, 'a'), (2, 1.5, 'b'), (3, 2.5, 'c'), (4, 3.5, 'a'), (NULL, NULL, NULL)`,
	} {
		if _, err := c.Exec(background(), sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	return srv, params
}

func TestStmtPayloadRoundTrip(t *testing.T) {
	id, n, err := DecodePrepareOK(EncodePrepareOK(7, 3))
	if err != nil || id != 7 || n != 3 {
		t.Fatalf("%d %d %v", id, n, err)
	}
	if _, _, err := DecodePrepareOK([]byte{1, 2}); err == nil {
		t.Fatal("truncated prepare-ok should fail")
	}
	if _, _, err := DecodePrepareOK(append(EncodePrepareOK(1, 1), 0)); err == nil {
		t.Fatal("trailing prepare-ok bytes should fail")
	}

	cols, err := storage.BindValues([]any{int64(5), 2.5, "x", true, []byte{1, 2}, nil})
	if err != nil {
		t.Fatal(err)
	}
	gotID, gotCols, err := DecodeExecStmt(EncodeExecStmt(9, cols))
	if err != nil || gotID != 9 || len(gotCols) != 6 {
		t.Fatalf("%d %d %v", gotID, len(gotCols), err)
	}
	wantTypes := []storage.Type{storage.TInt, storage.TFloat, storage.TStr, storage.TBool, storage.TBlob, storage.TStr}
	for i, col := range gotCols {
		if col.Typ != wantTypes[i] || col.Len() != 1 {
			t.Fatalf("arg %d: %s len %d", i, col.Typ, col.Len())
		}
	}
	if !gotCols[5].IsNull(0) {
		t.Fatal("nil argument must decode as NULL")
	}
	// a multi-row arg column is a protocol error
	two := storage.NewColumn("", storage.TInt)
	two.AppendInt(1)
	two.AppendInt(2)
	if _, _, err := DecodeExecStmt(EncodeExecStmt(1, []*storage.Column{two})); err == nil {
		t.Fatal("multi-row exec-stmt arg should fail")
	}

	cid, err := DecodeCloseStmt(EncodeCloseStmt(3))
	if err != nil || cid != 3 {
		t.Fatalf("%d %v", cid, err)
	}
	if _, err := DecodeCloseStmt([]byte{0}); err == nil {
		t.Fatal("truncated close-stmt should fail")
	}

	if _, err := storage.BindValues([]any{struct{}{}}); err == nil {
		t.Fatal("unbindable Go type should fail")
	}
}

// TestStmtWireDifferential is the tentpole acceptance over the wire: one
// prepared statement executed with 3 bind sets must return exactly what
// the literal-substituted Query calls return.
func TestStmtWireDifferential(t *testing.T) {
	_, params := preparedFixture(t)
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Prepare(background(), `SELECT i, f, s FROM nums WHERE i >= ? AND f < ? ORDER BY i`)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams() != 2 {
		t.Fatalf("NumParams = %d", st.NumParams())
	}
	binds := [][]any{
		{int64(1), 3.0},
		{int64(3), 99.0},
		{int64(0), 0.6},
	}
	for _, b := range binds {
		gotMsg, got, err := st.Query(background(), b...)
		if err != nil {
			t.Fatalf("binds %v: %v", b, err)
		}
		sql := fmt.Sprintf(`SELECT i, f, s FROM nums WHERE i >= %d AND f < %v ORDER BY i`, b[0], b[1])
		wantMsg, want, err := c.Query(background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if gotMsg != wantMsg {
			t.Fatalf("binds %v: msg %q vs %q", b, gotMsg, wantMsg)
		}
		if got.NumRows() != want.NumRows() || len(got.Cols) != len(want.Cols) {
			t.Fatalf("binds %v: shape mismatch", b)
		}
		for ci := range got.Cols {
			for r := 0; r < got.NumRows(); r++ {
				if got.Cols[ci].FormatValue(r) != want.Cols[ci].FormatValue(r) {
					t.Fatalf("binds %v: cell [%d,%d] %s vs %s", b, r, ci,
						got.Cols[ci].FormatValue(r), want.Cols[ci].FormatValue(r))
				}
			}
		}
	}
	if err := st.Close(background()); err != nil {
		t.Fatal(err)
	}
}

// TestStmtInterleavesWithQueries: prepared-statement verbs ride the same
// FIFO as queries, so mixing them (and pings) on one pipelined connection
// keeps responses ordered and the connection healthy.
func TestStmtInterleavesWithQueries(t *testing.T) {
	_, params := preparedFixture(t)
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Prepare(background(), `SELECT count(*) AS n FROM nums WHERE i > ?`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		_, tbl, err := st.Query(background(), int64(i%4))
		if err != nil {
			t.Fatal(err)
		}
		if tbl.NumRows() != 1 {
			t.Fatal("expected one row")
		}
		if _, _, err := c.Query(background(), `SELECT 1 AS one`); err != nil {
			t.Fatal(err)
		}
		if err := c.Ping(background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(background()); err != nil {
		t.Fatal(err)
	}
	// executing a closed statement fails client-side with the sentinel;
	// the id is gone server-side too
	if _, _, err := st.Query(background(), int64(1)); !errors.Is(err, ErrStmtClosed) {
		t.Fatalf("closed stmt must not execute: %v, want ErrStmtClosed", err)
	}
}

// TestStmtTableBounded: the per-connection statement table rejects
// prepares past the bound until a slot frees.
func TestStmtTableBounded(t *testing.T) {
	_, params := preparedFixture(t)
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s1, err := c.Prepare(background(), `SELECT 1 AS a`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < maxStmtsPerConn; i++ {
		if _, err := c.Prepare(background(), fmt.Sprintf(`SELECT 2 AS b%d`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Prepare(background(), `SELECT 3 AS c`); err == nil ||
		!strings.Contains(err.Error(), "full") {
		t.Fatalf("expected table-full error, got %v", err)
	}
	if err := s1.Close(background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prepare(background(), `SELECT 4 AS d`); err != nil {
		t.Fatalf("slot should have freed: %v", err)
	}
}

// TestStmtTableFreedOnDisconnect is the leak check: statements left open
// by clients (clean goodbye or a dropped socket) vanish with the session.
func TestStmtTableFreedOnDisconnect(t *testing.T) {
	srv, params := preparedFixture(t)
	for round, clean := range []bool{true, false} {
		c, err := DialContext(background(), params)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := c.Prepare(background(), fmt.Sprintf(`SELECT %d AS v, i FROM nums WHERE i < ?`, i)); err != nil {
				t.Fatal(err)
			}
		}
		if n := srv.OpenStatements(); n != 5 {
			t.Fatalf("round %d: expected 5 open statements, have %d", round, n)
		}
		if clean {
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			c.nc.Close() // dropped socket, no goodbye
		}
		deadline := time.Now().Add(5 * time.Second)
		for srv.OpenStatements() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: server leaked %d statements after disconnect",
					round, srv.OpenStatements())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestStmtErrors: server-side bind errors arrive as ordinary errors and
// leave the connection usable; unknown ids are rejected.
func TestStmtErrors(t *testing.T) {
	_, params := preparedFixture(t)
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Prepare(background(), `SELECT i FROM nums WHERE i = ?`)
	if err != nil {
		t.Fatal(err)
	}
	// type the slot as INTEGER, then violate it
	if _, _, err := st.Query(background(), int64(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Query(background(), "nope"); err == nil ||
		!strings.Contains(err.Error(), "typed at first bind") {
		t.Fatalf("expected slot type error, got %v", err)
	}
	// arity checked client-side
	if _, _, err := st.Query(background()); err == nil {
		t.Fatal("expected arity error")
	}
	// the connection survived all of it
	if _, _, err := c.Query(background(), `SELECT 1 AS ok`); err != nil {
		t.Fatalf("connection should still serve: %v", err)
	}
	// bad SQL never creates a statement
	if _, err := c.Prepare(background(), `SELEKT`); err == nil {
		t.Fatal("bad SQL should fail prepare")
	}
	if _, _, err := c.Query(background(), `SELECT 1 AS ok`); err != nil {
		t.Fatalf("connection should still serve after failed prepare: %v", err)
	}
}

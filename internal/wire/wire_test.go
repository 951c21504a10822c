package wire

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgQuery, []byte("SELECT 1")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(&buf)
	if err != nil || typ != MsgQuery || string(payload) != "SELECT 1" {
		t.Fatalf("%d %q %v", typ, payload, err)
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	// zero length
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("zero-length frame should fail")
	}
	// length beyond cap
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})); err == nil {
		t.Fatal("oversized frame should fail")
	}
	// truncated body
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 9, 1, 2})); err == nil {
		t.Fatal("truncated frame should fail")
	}
}

func sampleTable() *storage.Table {
	tbl := storage.NewTable("result", storage.Schema{
		{Name: "i", Type: storage.TInt},
		{Name: "f", Type: storage.TFloat},
		{Name: "s", Type: storage.TStr},
		{Name: "b", Type: storage.TBool},
		{Name: "blob", Type: storage.TBlob},
	})
	_ = tbl.AppendRow([]any{int64(1), 2.5, "hello", true, []byte{1, 2, 3}})
	_ = tbl.AppendRow([]any{nil, nil, nil, nil, nil})
	_ = tbl.AppendRow([]any{int64(-7), -0.25, "", false, []byte{}})
	return tbl
}

func TestResultEncodingRoundTrip(t *testing.T) {
	tbl := sampleTable()
	msg, back, err := DecodeResult(EncodeResult("SELECT 3", tbl))
	if err != nil {
		t.Fatal(err)
	}
	if msg != "SELECT 3" {
		t.Fatalf("msg %q", msg)
	}
	if back.NumRows() != 3 || len(back.Cols) != 5 {
		t.Fatalf("shape: %dx%d", back.NumRows(), len(back.Cols))
	}
	for ci, col := range tbl.Cols {
		for i := 0; i < col.Len(); i++ {
			if col.IsNull(i) != back.Cols[ci].IsNull(i) {
				t.Fatalf("null mismatch col %d row %d", ci, i)
			}
			if !col.IsNull(i) && col.FormatValue(i) != back.Cols[ci].FormatValue(i) {
				t.Fatalf("value mismatch col %d row %d: %s vs %s",
					ci, i, col.FormatValue(i), back.Cols[ci].FormatValue(i))
			}
		}
	}
}

func TestResultEncodingNilTable(t *testing.T) {
	msg, tbl, err := DecodeResult(EncodeResult("CREATE TABLE", nil))
	if err != nil || msg != "CREATE TABLE" || tbl != nil {
		t.Fatalf("%q %v %v", msg, tbl, err)
	}
}

func TestResultEncodingPropertyInts(t *testing.T) {
	f := func(vals []int64, nulls []bool) bool {
		col := storage.NewColumn("x", storage.TInt)
		for i, v := range vals {
			if i < len(nulls) && nulls[i] {
				col.AppendNull()
			} else {
				col.AppendInt(v)
			}
		}
		tbl := &storage.Table{Name: "t", Cols: []*storage.Column{col}}
		_, back, err := DecodeResult(EncodeResult("ok", tbl))
		if err != nil {
			return false
		}
		bc := back.Cols[0]
		if bc.Len() != col.Len() {
			return false
		}
		for i := 0; i < col.Len(); i++ {
			if col.IsNull(i) != bc.IsNull(i) {
				return false
			}
			if !col.IsNull(i) && col.Ints[i] != bc.Ints[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeResultRejectsGarbage(t *testing.T) {
	good := EncodeResult("ok", sampleTable())
	cases := [][]byte{
		nil,
		{1},
		good[:len(good)-3], // truncated
		append(good, 0xAA), // trailing byte
		{0, 0, 0, 2, 'o', 'k', 1, 0, 0, 0, 1, 0, 0, 0, 1, 'x', 99, 0, 0, 0, 0, 0}, // bad type
	}
	for i, c := range cases {
		if _, _, err := DecodeResult(c); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// startTestServer boots a server with one user on a random port.
func startTestServer(t *testing.T) (*Server, ConnParams) {
	t.Helper()
	db := engine.NewDB()
	db.FS = core.NewMemFS(nil)
	srv := NewServer("demo", "monetdb", "secret", db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	host, portStr, _ := splitHostPort(addr)
	return srv, ConnParams{Host: host, Port: portStr, Database: "demo", User: "monetdb", Password: "secret"}
}

func splitHostPort(addr string) (string, int, error) {
	i := strings.LastIndexByte(addr, ':')
	port := 0
	for _, ch := range addr[i+1:] {
		port = port*10 + int(ch-'0')
	}
	return addr[:i], port, nil
}

func TestClientServerEndToEnd(t *testing.T) {
	_, params := startTestServer(t)
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Query(context.Background(), `CREATE TABLE t (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(context.Background(), `INSERT INTO t VALUES (1), (2), (3)`); err != nil {
		t.Fatal(err)
	}
	msg, tbl, err := c.Query(context.Background(), `SELECT SUM(i) AS s FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if msg != "SELECT 1" || tbl.Cols[0].Ints[0] != 6 {
		t.Fatalf("%q %v", msg, tbl.Cols[0].Ints)
	}
	if c.BytesRead == 0 || c.BytesWritten == 0 {
		t.Fatal("byte counters should advance")
	}
}

func TestServerSQLErrorDoesNotKillConnection(t *testing.T) {
	_, params := startTestServer(t)
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = c.Query(context.Background(), `SELECT * FROM missing`)
	if err == nil {
		t.Fatal("expected SQL error")
	}
	if core.KindOf(err) != core.KindName {
		t.Fatalf("kind should cross the wire: %v (%v)", core.KindOf(err), err)
	}
	// connection still usable
	if _, _, err := c.Query(context.Background(), `SELECT 1 AS one`); err != nil {
		t.Fatalf("connection should survive SQL errors: %v", err)
	}
}

func TestAuthFailures(t *testing.T) {
	_, params := startTestServer(t)
	bad := params
	bad.Password = "wrong"
	if _, err := DialContext(background(), bad); err == nil || core.KindOf(err) != core.KindAuth {
		t.Fatalf("wrong password: %v", err)
	}
	bad = params
	bad.User = "eve"
	if _, err := DialContext(background(), bad); err == nil || core.KindOf(err) != core.KindAuth {
		t.Fatalf("unknown user: %v", err)
	}
	bad = params
	bad.Database = "other"
	if _, err := DialContext(background(), bad); err == nil || core.KindOf(err) != core.KindAuth {
		t.Fatalf("unknown database: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, params := startTestServer(t)
	setup, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := setup.Query(context.Background(), `CREATE TABLE t (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			c, err := DialContext(background(), params)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				if _, _, err := c.Query(context.Background(), `INSERT INTO t VALUES (1)`); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	check, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	_, tbl, err := check.Query(context.Background(), `SELECT COUNT(*) AS n FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Cols[0].Ints[0] != int64(workers*20) {
		t.Fatalf("count: %d", tbl.Cols[0].Ints[0])
	}
}

func TestRemoteUDFThroughWire(t *testing.T) {
	_, params := startTestServer(t)
	c, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sql := range []string{
		`CREATE TABLE numbers (i INTEGER)`,
		`INSERT INTO numbers VALUES (1), (2), (3), (4), (100)`,
		`CREATE FUNCTION mean_deviation(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {
    mean = 0
    for i in range(0, len(column)):
        mean += column[i]
    mean = mean / len(column)
    distance = 0
    for i in range(0, len(column)):
        distance += abs(column[i] - mean)
    return distance / len(column)
}`,
	} {
		if _, _, err := c.Query(context.Background(), sql); err != nil {
			t.Fatalf("%q: %v", sql[:20], err)
		}
	}
	_, tbl, err := c.Query(context.Background(), `SELECT mean_deviation(i) AS md FROM numbers`)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Cols[0].Flts[0] != 31.2 {
		t.Fatalf("md = %v", tbl.Cols[0].Flts)
	}
	// meta tables over the wire (the devUDF import path)
	_, meta, err := c.Query(context.Background(), `SELECT name, func FROM sys.functions`)
	if err != nil {
		t.Fatal(err)
	}
	if meta.NumRows() != 1 || meta.Cols[0].Strs[0] != "mean_deviation" {
		t.Fatalf("meta: %+v", meta.Cols[0].Strs)
	}
}

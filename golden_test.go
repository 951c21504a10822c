package repro_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dump"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/wire"
)

// goldenDigests pins every byte format the tree writes: the storage codec
// (tables and row ranges), the dump with its three column encodings and a
// function ID, the wire payloads and the chunk boundaries of a result
// stream, and a WAL segment. They were recorded at the commit before
// storage became the only owner of the column layout (PR 23); a change that
// moves one of them has changed what an older client, snapshot or log
// contains.
var goldenDigests = map[string]string{
	"dump":               "2240ba5acc62143aacef75ab7f2e07c787aada37873c516f47c8dcdb3f8b9704",
	"encode-table":       "dbce6dc80757e463711d5473fd28cece61b18ced79d10319e88b92f58726d7e3",
	"encode-table-range": "aca6609e8e454fe222b6fc8aca33093fbcdee96919167aadafd30163866f445f",
	"wire-result":        "2a194f2e09c5edebb1ea3779b1d89b49032049b50cf052cc71c2fee98709bcaf",
	"wire-exec-stmt":     "37380a0aea9e859aaf3830eca71a7298b9842f2bbe911e6c774b8000ce811e3a",
	"wire-stream-256":    "cac8657ab79ec871116f59badb09131b40c689418d6b7b0dd512b4c66d41bcbd",
	"wal-segment":        "8e987631ed353a9a3f3c0b84109e7d17427cbf6fcd8586a43f364b460ebb9508",
}

const goldenRows = 40

// goldenTables is five types × {no NULLs, some, all NULL, empty}: one table
// per NULL shape, and within each a column per encoding the dump can pick —
// runs (RLE for INTEGER, DOUBLE, BOOLEAN, STRING), few distinct strings
// (dictionary), and distinct values and blobs (plain) — and two narrow ones
// for the result stream.
func goldenTables() []*storage.Table {
	schema := storage.Schema{
		{Name: "i_seq", Type: storage.TInt},
		{Name: "i_run", Type: storage.TInt},
		{Name: "f_seq", Type: storage.TFloat},
		{Name: "f_run", Type: storage.TFloat},
		{Name: "s_uniq", Type: storage.TStr},
		{Name: "s_dict", Type: storage.TStr},
		{Name: "s_run", Type: storage.TStr},
		{Name: "b_alt", Type: storage.TBool},
		{Name: "b_run", Type: storage.TBool},
		{Name: "bl", Type: storage.TBlob},
	}
	row := func(i int) []any {
		f := float64(i) * 1.5
		if i == 7 {
			f = math.Inf(-1)
		}
		return []any{
			int64(i*i - 50), int64(i / 16),
			f, float64(i/20) + 0.25,
			fmt.Sprintf("row-%03d", i), []string{"alpha", "beta", "gamma"}[i*7%3], []string{"lo", "hi"}[i/25],
			i%2 == 0, i < 30,
			bytes.Repeat([]byte{byte(i)}, i%5),
		}
	}
	var tables []*storage.Table
	for _, shape := range []string{"none", "some", "allnull", "empty"} {
		t := storage.NewTable("g_"+shape, schema)
		for i := 0; i < goldenRows && shape != "empty"; i++ {
			vals := row(i)
			for c := range vals {
				if shape == "allnull" || (shape == "some" && (i+c)%6 == 0) {
					vals[c] = nil
				}
			}
			if err := t.AppendRow(vals); err != nil {
				panic(err)
			}
		}
		tables = append(tables, t)
	}
	// Two narrow tables: at 256 bytes a chunk of the wide ones is a single
	// row whatever a row is charged, while these put some twenty rows in a
	// chunk, so a byte more or less per row moves the stream's cuts.
	for _, shape := range []string{"none", "some"} {
		t := storage.NewTable("n_"+shape, storage.Schema{{Name: "i", Type: storage.TInt}, {Name: "b", Type: storage.TBool}})
		for i := 0; i < 3*goldenRows; i++ {
			vals := []any{int64(i), i%3 == 0}
			if shape == "some" && i%5 == 0 {
				vals[i%2] = nil
			}
			if err := t.AppendRow(vals); err != nil {
				panic(err)
			}
		}
		tables = append(tables, t)
	}
	return tables
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestGoldenBytes(t *testing.T) {
	got := map[string]string{}
	tables := goldenTables()

	db := engine.NewDB()
	for _, tbl := range tables {
		if err := db.RegisterTable(tbl.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	conn := &engine.Conn{DB: db, User: "monetdb", Password: "monetdb"}
	for _, sql := range []string{
		"CREATE FUNCTION burn(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\n    return column\n}",
		"DROP FUNCTION burn",
		"CREATE FUNCTION plus_one(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\n    return [v + 1 for v in column]\n}",
	} {
		if _, err := conn.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := dump.Dump(db, &snap); err != nil {
		t.Fatal(err)
	}
	got["dump"] = digest(snap.Bytes())

	var whole, ranges, results, stream []byte
	for _, tbl := range tables {
		whole = storage.EncodeTable(whole, tbl)
		if n := tbl.NumRows(); n > 0 {
			ranges = storage.EncodeTableRange(ranges, tbl, 3, 17)
			ranges = storage.EncodeTableRange(ranges, tbl, n-1, n)
		}
		ranges = storage.EncodeTableRange(ranges, tbl, 0, 0)
		results = append(results, wire.EncodeResult("SELECT "+tbl.Name, tbl)...)
		var frames bytes.Buffer
		if err := wire.WriteResultStream(&frames, "streamed "+tbl.Name, tbl, 256); err != nil {
			t.Fatal(err)
		}
		stream = append(stream, frames.Bytes()...)
	}
	results = append(results, wire.EncodeResult("CREATE TABLE", nil)...)
	got["encode-table"] = digest(whole)
	got["encode-table-range"] = digest(ranges)
	got["wire-result"] = digest(results)
	got["wire-stream-256"] = digest(stream)

	var args []*storage.Column
	for _, v := range []any{int64(-7), 2.5, "text", true, []byte{0, 1, 2}, nil, 42, float32(0.5)} {
		col, err := storage.BindValue(v)
		if err != nil {
			t.Fatal(err)
		}
		args = append(args, col)
	}
	got["wire-exec-stmt"] = digest(wire.EncodeExecStmt(9, args))

	got["wal-segment"] = digest(goldenSegment(t))

	for name, want := range goldenDigests {
		if got[name] != want {
			t.Errorf("%s: digest %s, recorded %s", name, got[name], want)
		}
	}
}

// goldenSegment runs a fixed statement list against a WAL-backed database
// and returns the one segment it leaves: table and function DDL, single-row
// and batch INSERTs with NULLs of every type, a registered table, drops.
func goldenSegment(t *testing.T) []byte {
	dir := t.TempDir()
	db := engine.NewDB()
	m, err := wal.Open(dir, db, wal.Options{SnapshotBytes: -1, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	conn := &engine.Conn{DB: db, User: "monetdb", Password: "monetdb"}
	for _, sql := range []string{
		"CREATE TABLE mix (i INTEGER, f DOUBLE, s STRING, b BOOLEAN, bl BLOB)",
		"INSERT INTO mix VALUES (1, 1.5, 'one', TRUE, 'b1')",
		"INSERT INTO mix VALUES (2, NULL, 'two', FALSE, NULL), (NULL, 3.5, NULL, NULL, 'b3'), (4, 4.5, 'four', TRUE, 'b4')",
		"CREATE FUNCTION twice(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\n    return [v * 2 for v in column]\n}",
		"CREATE OR REPLACE FUNCTION twice(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\n    return [v + v for v in column]\n}",
		"CREATE TABLE gone (x INTEGER)",
		"INSERT INTO gone VALUES (9)",
		"DROP TABLE gone",
		"DROP FUNCTION twice",
	} {
		if _, err := conn.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if err := db.RegisterTable(goldenTables()[1]); err != nil {
		t.Fatal(err)
	}
	stmt, err := conn.Prepare("INSERT INTO mix VALUES (?, ?, ?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Exec(int64(5), 5.5, "five", false, []byte("b5")); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

package dump

import (
	"bytes"
	"encoding/binary"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
)

func exec(t *testing.T, db *engine.DB, sql string) *engine.Result {
	t.Helper()
	conn := &engine.Conn{DB: db, User: "u", Password: "p"}
	r, err := conn.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return r
}

// encodeV1 reproduces the retired MLDUMP1 writer, so the refusal test and
// the fuzz seeds feed Restore a well-formed file of the old version rather
// than only a bare magic.
func encodeV1(tables []*storage.Table, funcs []*storage.FuncDef) []byte {
	buf := []byte("MLDUMP1\n")
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(tables)))
	for _, t := range tables {
		buf = storage.EncodeTable(buf, t)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(funcs)))
	for _, f := range funcs {
		buf = append(buf, AppendFuncDef(nil, f)[4:]...) // v1 carried no function ID
	}
	return buf
}

func TestFunctionIDsSurviveRoundTrip(t *testing.T) {
	db := engine.NewDB()
	for _, sql := range []string{
		`CREATE FUNCTION zeta(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return column
}`,
		`CREATE FUNCTION alpha(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return column
}`,
		`DROP FUNCTION zeta`,
		`CREATE FUNCTION beta(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return column
}`,
	} {
		exec(t, db, sql)
	}
	// alpha id=2, beta id=3 (zeta burned id 1). V1 restore re-assigned in
	// name-sorted order, so alpha flipped to 1 and beta to 2 — the drift
	// this format version exists to fix.
	before := exec(t, db, `SELECT id, name FROM sys.functions ORDER BY name`)

	var buf bytes.Buffer
	if err := Dump(db, &buf); err != nil {
		t.Fatal(err)
	}
	fresh := engine.NewDB()
	if err := Restore(fresh, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	after := exec(t, fresh, `SELECT id, name FROM sys.functions ORDER BY name`)
	if before.Table.NumRows() != after.Table.NumRows() {
		t.Fatalf("function count changed: %d -> %d", before.Table.NumRows(), after.Table.NumRows())
	}
	for i := 0; i < before.Table.NumRows(); i++ {
		bID, aID := before.Table.Cols[0].Ints[i], after.Table.Cols[0].Ints[i]
		name := before.Table.Cols[1].Strs[i]
		if bID != aID {
			t.Fatalf("function %q id drifted: %d -> %d", name, bID, aID)
		}
	}
	// the next-ID counter came across too: a new function must not collide
	// with the burned id range
	exec(t, fresh, `CREATE FUNCTION gamma(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return column
}`)
	r := exec(t, fresh, `SELECT id FROM sys.functions WHERE name = 'gamma'`)
	maxBefore := int64(0)
	for _, id := range before.Table.Cols[0].Ints {
		if id > maxBefore {
			maxBefore = id
		}
	}
	if got := r.Table.Cols[0].Ints[0]; got <= maxBefore {
		t.Fatalf("new function reused id %d (existing max %d)", got, maxBefore)
	}
}

// TestV1DumpRefused: a well-formed dump of the retired version 1 is named
// as such with a typed error — not misread as version 2, not called
// foreign — and the catalog it was offered to stays as it was.
func TestV1DumpRefused(t *testing.T) {
	tbl := storage.NewTable("legacy", storage.Schema{
		{Name: "i", Type: storage.TInt},
		{Name: "s", Type: storage.TStr},
	})
	if err := tbl.AppendRow([]any{int64(7), "seven"}); err != nil {
		t.Fatal(err)
	}
	fn := &storage.FuncDef{
		Name: "plus_one", Language: "python",
		Body:    "    return [v + 1 for v in column]",
		Params:  storage.Schema{{Name: "column", Type: storage.TInt}},
		Returns: storage.Schema{{Name: "result", Type: storage.TInt}},
	}
	data := encodeV1([]*storage.Table{tbl}, []*storage.FuncDef{fn})

	db := engine.NewDB()
	exec(t, db, `CREATE TABLE mine (i INTEGER)`)
	err := Restore(db, bytes.NewReader(data))
	if core.KindOf(err) != core.KindProtocol || !strings.Contains(err.Error(), "unsupported dump version") {
		t.Fatalf("v1 dump: want a protocol error naming the unsupported version, got %v", err)
	}
	if err := db.Lock(func(cat *storage.Catalog) error {
		if names := cat.TableNames(); len(names) != 1 || names[0] != "mine" {
			t.Errorf("refused restore changed the tables: %v", names)
		}
		if n := len(cat.Functions()); n != 0 {
			t.Errorf("refused restore left %d functions", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreAllOrNothingOnLiveClash(t *testing.T) {
	// The dump holds tables AND a function whose name clashes with a
	// pre-existing one. Tables restore first; the function clash must roll
	// them back, not leave a half-restored catalog (the old failure mode).
	src := engine.NewDB()
	exec(t, src, `CREATE TABLE fine (i INTEGER)`)
	exec(t, src, `INSERT INTO fine VALUES (1)`)
	exec(t, src, `CREATE FUNCTION clash(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return column
}`)
	var buf bytes.Buffer
	if err := Dump(src, &buf); err != nil {
		t.Fatal(err)
	}

	dst := engine.NewDB()
	exec(t, dst, `CREATE FUNCTION clash(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return column
}`)
	if err := Restore(dst, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("clashing restore must fail")
	}
	conn := &engine.Conn{DB: dst, User: "u", Password: "p"}
	if _, err := conn.Exec(`SELECT i FROM fine`); err == nil {
		t.Fatal("failed restore left table 'fine' behind")
	}
}

func TestRestoreRejectsDuplicateNameInDump(t *testing.T) {
	// Hand-craft a dump whose table section repeats the same table: the
	// scratch-catalog staging must reject it before the live catalog is
	// touched.
	src := engine.NewDB()
	exec(t, src, `CREATE TABLE dup (i INTEGER)`)
	exec(t, src, `INSERT INTO dup VALUES (1)`)
	var buf bytes.Buffer
	if err := Dump(src, &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// layout: magic(8) nextID(4) ntables(4) <table bytes> nfuncs(4)
	tableBytes := data[16 : len(data)-4]
	forged := append([]byte{}, data[:12]...)
	forged = binary.BigEndian.AppendUint32(forged, 2)
	forged = append(forged, tableBytes...)
	forged = append(forged, tableBytes...)
	forged = binary.BigEndian.AppendUint32(forged, 0)

	dst := engine.NewDB()
	err := Restore(dst, bytes.NewReader(forged))
	if err == nil {
		t.Fatal("duplicate table name in dump must fail restore")
	}
	if !strings.Contains(err.Error(), "exists") {
		t.Fatalf("unexpected error: %v", err)
	}
	conn := &engine.Conn{DB: dst, User: "u", Password: "p"}
	if _, err := conn.Exec(`SELECT i FROM dup`); err == nil {
		t.Fatal("failed restore left table 'dup' behind")
	}
}

func TestCompressedColumnsRoundTrip(t *testing.T) {
	db := engine.NewDB()
	db.FS = core.NewMemFS(nil)
	exec(t, db, `CREATE TABLE mix (i INTEGER, f DOUBLE, s STRING, b BOOLEAN, bl BLOB)`)
	conn := &engine.Conn{DB: db, User: "u", Password: "p"}
	// long runs (RLE), low-cardinality strings (dict), NaN runs, nulls
	for i := 0; i < 300; i++ {
		val := i / 100 // 3 runs of 100
		var sql string
		if i%7 == 0 {
			sql = "INSERT INTO mix VALUES (" +
				strconv.Itoa(val) + ", NULL, NULL, TRUE, NULL)"
		} else {
			sql = "INSERT INTO mix VALUES (" +
				strconv.Itoa(val) + ", 2.5, 'tag-" + strconv.Itoa(val) + "', FALSE, 'bb')"
		}
		if _, err := conn.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Dump(db, &buf); err != nil {
		t.Fatal(err)
	}
	// 300 rows x (8B int + 8B float + ~9B str + 1B bool + ~6B blob) is
	// roughly 9KB plain; runs and dictionaries must beat that comfortably
	// (the nulls every 7th row break runs, and blobs never compress).
	if buf.Len() > 6000 {
		t.Fatalf("compressed dump unexpectedly large: %d bytes", buf.Len())
	}

	fresh := engine.NewDB()
	if err := Restore(fresh, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	fconn := &engine.Conn{DB: fresh, User: "u", Password: "p"}
	r, err := fconn.Exec(`SELECT i, f, s, b, bl FROM mix`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Table.NumRows() != 300 {
		t.Fatalf("rows: %d", r.Table.NumRows())
	}
	for i := 0; i < 300; i++ {
		if got := r.Table.Cols[0].Ints[i]; got != int64(i/100) {
			t.Fatalf("row %d int: %d", i, got)
		}
		if i%7 == 0 {
			if !r.Table.Cols[1].IsNull(i) || !r.Table.Cols[2].IsNull(i) {
				t.Fatalf("row %d nulls lost", i)
			}
			if !r.Table.Cols[3].Bools[i] {
				t.Fatalf("row %d bool", i)
			}
		} else {
			if r.Table.Cols[1].Flts[i] != 2.5 {
				t.Fatalf("row %d float: %v", i, r.Table.Cols[1].Flts[i])
			}
			if want := "tag-" + strconv.Itoa(i/100); r.Table.Cols[2].Strs[i] != want {
				t.Fatalf("row %d str: %q want %q", i, r.Table.Cols[2].Strs[i], want)
			}
			if string(r.Table.Cols[4].Blobs[i]) != "bb" {
				t.Fatalf("row %d blob: %q", i, r.Table.Cols[4].Blobs[i])
			}
		}
	}
}

func TestNaNRunsCompress(t *testing.T) {
	// NaN != NaN under ==, so naive run detection would never find a NaN
	// run; the encoder compares bit patterns.
	col := storage.NewColumn("f", storage.TFloat)
	for i := 0; i < 64; i++ {
		col.Flts = append(col.Flts, math.NaN())
	}
	buf := appendColumnV2(nil, col)
	// 64 plain floats = 512B payload; one RLE run is a handful of bytes.
	if len(buf) > 64 {
		t.Fatalf("NaN column not run-length encoded: %d bytes", len(buf))
	}
	br := storage.NewByteReader(buf)
	got, err := readColumnV2(br, newBudget())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 64 || !math.IsNaN(got.Flts[0]) || !math.IsNaN(got.Flts[63]) {
		t.Fatalf("NaN round trip: len=%d first=%v", got.Len(), got.Flts[0])
	}
}

func TestReadColumnV2RejectsCorruption(t *testing.T) {
	col := storage.NewColumn("i", storage.TInt)
	col.Ints = []int64{5, 5, 5, 5}
	valid := appendColumnV2(nil, col)

	mutate := func(f func([]byte) []byte) error {
		b := f(append([]byte{}, valid...))
		_, err := readColumnV2(storage.NewByteReader(b), newBudget())
		return err
	}
	cases := map[string]func([]byte) []byte{
		"bad type": func(b []byte) []byte {
			// layout: str name ("i": 4+1) then type byte
			b[5] = 99
			return b
		},
		"huge row count": func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[6:], 1<<31-1)
			return b
		},
		"bad null flag": func(b []byte) []byte {
			b[10] = 2
			return b
		},
		"bad encoding byte": func(b []byte) []byte {
			b[11] = 9
			return b
		},
		"truncated": func(b []byte) []byte {
			return b[:len(b)-3]
		},
	}
	for name, f := range cases {
		if err := mutate(f); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
	if _, err := readColumnV2(storage.NewByteReader(valid), newBudget()); err != nil {
		t.Fatalf("control: valid column rejected: %v", err)
	}
}

func newBudget() *int {
	b := maxDumpCells
	return &b
}

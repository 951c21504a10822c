package dump

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

func seededDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.NewDB()
	db.FS = core.NewMemFS(nil)
	conn := &engine.Conn{DB: db, User: "u", Password: "p"}
	for _, sql := range []string{
		`CREATE TABLE numbers (i INTEGER, s STRING, f DOUBLE, b BOOLEAN, bl BLOB)`,
		`INSERT INTO numbers VALUES (1, 'one', 1.5, TRUE, 'blob'), (NULL, NULL, NULL, NULL, NULL)`,
		`CREATE TABLE empty (x INTEGER)`,
		`CREATE FUNCTION mean_deviation(column INTEGER) RETURNS DOUBLE LANGUAGE PYTHON {
    return 31.2
}`,
		`CREATE FUNCTION loader(path STRING) RETURNS TABLE(i INTEGER) LANGUAGE PYTHON {
    return [1]
}`,
	} {
		if _, err := conn.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestDumpRestoreRoundTrip(t *testing.T) {
	db := seededDB(t)
	var buf bytes.Buffer
	if err := Dump(db, &buf); err != nil {
		t.Fatal(err)
	}

	fresh := engine.NewDB()
	fresh.FS = core.NewMemFS(nil)
	if err := Restore(fresh, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	conn := &engine.Conn{DB: fresh, User: "u", Password: "p"}
	r, err := conn.Exec(`SELECT i, s FROM numbers ORDER BY i`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Table.NumRows() != 2 {
		t.Fatalf("rows: %d", r.Table.NumRows())
	}
	i, _ := r.Table.Column("i")
	if !i.IsNull(0) || i.Ints[1] != 1 {
		t.Fatalf("data: %v %v", i.Ints, i.Nulls)
	}
	// the restored UDF runs
	r, err = conn.Exec(`SELECT mean_deviation(i) FROM numbers WHERE i IS NOT NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Table.Cols[0].Flts[0] != 31.2 {
		t.Fatalf("udf: %v", r.Table.Cols[0].Flts)
	}
	// table function metadata survived
	r, err = conn.Exec(`SELECT is_table FROM sys.functions WHERE name = 'loader'`)
	if err != nil || !r.Table.Cols[0].Bools[0] {
		t.Fatalf("loader is_table: %v %v", r.Table.Cols, err)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	fresh := engine.NewDB()
	cases := [][]byte{
		nil,
		[]byte("not a dump"),
		[]byte("MLDUMP2\n"), // truncated counts
		[]byte("MLDUMP2\n\x00\x00\x00\x01\x00\x00\x00\x01"), // table promised, absent
		[]byte("MLDUMP2\nxxxxxxxxxxxxxxxxxxxxxx"),           // garbage counts
	}
	for i, c := range cases {
		if err := Restore(fresh, bytes.NewReader(c)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// trailing bytes rejected
	db := seededDB(t)
	var buf bytes.Buffer
	_ = Dump(db, &buf)
	buf.WriteByte(0xFF)
	if err := Restore(engine.NewDB(), bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestRestoreIntoNonEmptyDBFails(t *testing.T) {
	db := seededDB(t)
	var buf bytes.Buffer
	if err := Dump(db, &buf); err != nil {
		t.Fatal(err)
	}
	if err := Restore(db, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restoring over clashing names should fail")
	}
}

func TestDumpDeterministic(t *testing.T) {
	db := seededDB(t)
	var a, b bytes.Buffer
	if err := Dump(db, &a); err != nil {
		t.Fatal(err)
	}
	if err := Dump(db, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("dump must be deterministic")
	}
}

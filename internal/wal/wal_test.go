package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dump"
	"repro/internal/engine"
	"repro/internal/storage"
)

func openDB(t *testing.T, dir string, opts Options) (*engine.DB, *Manager) {
	t.Helper()
	db := engine.NewDB()
	m, err := Open(dir, db, opts)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return db, m
}

func mustExec(t *testing.T, db *engine.DB, sqls ...string) {
	t.Helper()
	conn := &engine.Conn{DB: db, User: "u", Password: "p"}
	for _, sql := range sqls {
		if _, err := conn.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
}

func queryInts(t *testing.T, db *engine.DB, sql string) []int64 {
	t.Helper()
	conn := &engine.Conn{DB: db, User: "u", Password: "p"}
	r, err := conn.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return append([]int64(nil), r.Table.Cols[0].Ints...)
}

var workload = []string{
	`CREATE TABLE nums (i INTEGER, s STRING)`,
	`INSERT INTO nums VALUES (1, 'one'), (2, 'two'), (NULL, NULL)`,
	`CREATE TABLE dropme (x INTEGER)`,
	`DROP TABLE dropme`,
	`CREATE FUNCTION double_it(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return [v * 2 for v in column]
}`,
	`CREATE FUNCTION gone(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return column
}`,
	`DROP FUNCTION gone`,
	`INSERT INTO nums VALUES (3, 'three')`,
}

func verifyWorkload(t *testing.T, db *engine.DB) {
	t.Helper()
	got := queryInts(t, db, `SELECT i FROM nums WHERE i IS NOT NULL ORDER BY i`)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("nums rows after recovery: %v", got)
	}
	got = queryInts(t, db, `SELECT double_it(i) FROM nums WHERE i = 2`)
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("recovered UDF result: %v", got)
	}
	conn := &engine.Conn{DB: db, User: "u", Password: "p"}
	if _, err := conn.Exec(`SELECT x FROM dropme`); err == nil {
		t.Fatal("dropped table resurrected by replay")
	}
	if _, err := conn.Exec(`SELECT gone(i) FROM nums`); err == nil {
		t.Fatal("dropped function resurrected by replay")
	}
}

func TestReplayFromLogOnly(t *testing.T) {
	dir := t.TempDir()
	db, m := openDB(t, dir, Options{})
	mustExec(t, db, workload...)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	db2, m2 := openDB(t, dir, Options{})
	defer m2.Close()
	verifyWorkload(t, db2)
}

func TestRecoverFromSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	db, m := openDB(t, dir, Options{})
	mustExec(t, db, workload[:5]...)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	mustExec(t, db, workload[5:]...) // lands in the post-snapshot WAL tail
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	db2, m2 := openDB(t, dir, Options{})
	defer m2.Close()
	verifyWorkload(t, db2)
}

func TestFunctionIDsStableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	db, m := openDB(t, dir, Options{})
	mustExec(t, db, workload...)
	before := queryInts(t, db, `SELECT id FROM sys.functions ORDER BY id`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	db2, m2 := openDB(t, dir, Options{})
	defer m2.Close()
	after := queryInts(t, db2, `SELECT id FROM sys.functions ORDER BY id`)
	if len(before) == 0 || len(after) != len(before) {
		t.Fatalf("function ids: before %v after %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("function id drift: before %v after %v", before, after)
		}
	}
	// a new function must not reuse a dropped-then-recovered ID range
	mustExec(t, db2, `CREATE FUNCTION fresh(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return column
}`)
	ids := queryInts(t, db2, `SELECT id FROM sys.functions ORDER BY id`)
	newID := ids[len(ids)-1]
	if newID <= after[len(after)-1] {
		t.Fatalf("new function id %d not past recovered counter (ids %v)", newID, ids)
	}
}

func TestCheckpointRotatesAndPurges(t *testing.T) {
	dir := t.TempDir()
	db, m := openDB(t, dir, Options{SnapshotBytes: -1})
	mustExec(t, db, workload...)
	for i := 0; i < 3; i++ {
		mustExec(t, db, `INSERT INTO nums VALUES (9, 'nine')`)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.dump"))
	if len(snaps) != retainSnapshots {
		t.Fatalf("want %d retained snapshots, have %v", retainSnapshots, snaps)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != retainSnapshots {
		t.Fatalf("want segments only for retained snapshots, have %v", segs)
	}
	m.Close()

	db2, m2 := openDB(t, dir, Options{})
	defer m2.Close()
	got := queryInts(t, db2, `SELECT i FROM nums WHERE i IS NOT NULL ORDER BY i`)
	want := []int64{1, 2, 3, 9, 9, 9}
	if len(got) != len(want) {
		t.Fatalf("rows after recovery: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rows after recovery: %v", got)
		}
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	db, m := openDB(t, dir, Options{})
	mustExec(t, db, workload...)
	m.Close()

	// Simulate a crash mid-append: garbage half-record at the tail.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 99, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(last)

	var logs bytes.Buffer
	logf := func(format string, args ...any) { logs.WriteString(format + "\n") }
	db2, m2 := openDB(t, dir, Options{Logf: logf})
	verifyWorkload(t, db2)
	m2.Close()
	_ = db2
	after, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	if !strings.Contains(logs.String(), "torn tail") {
		t.Fatalf("expected torn-tail log, got: %s", logs.String())
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	db, m := openDB(t, dir, Options{SnapshotBytes: -1})
	mustExec(t, db, workload[:5]...)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, workload[5:]...)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.dump"))
	if len(snaps) < 2 {
		t.Fatalf("need two snapshot generations, have %v", snaps)
	}
	// Corrupt the newest snapshot; recovery must fall back to the previous
	// one and replay the segments after it.
	newest := snaps[len(snaps)-1]
	if err := os.WriteFile(newest, []byte("MLDUMP2\nGARBAGE"), 0o644); err != nil {
		t.Fatal(err)
	}
	db2, m2 := openDB(t, dir, Options{})
	defer m2.Close()
	verifyWorkload(t, db2)
}

func TestAllSnapshotsCorruptRefusesStart(t *testing.T) {
	dir := t.TempDir()
	db, m := openDB(t, dir, Options{})
	mustExec(t, db, workload...)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.dump"))
	for _, s := range snaps {
		if err := os.WriteFile(s, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Also remove pre-snapshot segments so the state is genuinely
	// unreachable (keep only the post-checkpoint tail).
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, s := range segs[:len(segs)-1] {
		os.Remove(s)
	}
	if _, err := Open(dir, engine.NewDB(), Options{}); err == nil {
		t.Fatal("open must refuse to start empty over unreadable snapshots")
	}
}

func TestGoUDFMarkerReplay(t *testing.T) {
	dir := t.TempDir()
	db, m := openDB(t, dir, Options{})
	if err := db.RegisterGoUDF("tripled", func(xs []int64) []int64 {
		out := make([]int64, len(xs))
		for i, x := range xs {
			out[i] = x * 3
		}
		return out
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (i INTEGER)`, `INSERT INTO t VALUES (7)`)
	m.Close()

	// Replay recreates the catalog entry; the Go implementation is
	// process-wide (gort registry), so the recovered function is callable.
	db2, m2 := openDB(t, dir, Options{})
	defer m2.Close()
	got := queryInts(t, db2, `SELECT tripled(i) FROM t`)
	if len(got) != 1 || got[0] != 21 {
		t.Fatalf("recovered go udf: %v", got)
	}
}

func TestSyncAlwaysAndManualSync(t *testing.T) {
	dir := t.TempDir()
	db, m := openDB(t, dir, Options{Sync: SyncAlways})
	mustExec(t, db, `CREATE TABLE t (i INTEGER)`, `INSERT INTO t VALUES (1)`)
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	db2, m2 := openDB(t, dir, Options{})
	defer m2.Close()
	if got := queryInts(t, db2, `SELECT i FROM t`); len(got) != 1 {
		t.Fatalf("rows: %v", got)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	db, m := openDB(t, dir, Options{})
	mustExec(t, db, `CREATE TABLE t (i INTEGER)`)
	m.Close()
	// Hooks are uninstalled at Close: further statements are in-memory only
	// and must still succeed.
	mustExec(t, db, `INSERT INTO t VALUES (1)`)

	db2, m2 := openDB(t, dir, Options{})
	defer m2.Close()
	if got := queryInts(t, db2, `SELECT i FROM t`); len(got) != 0 {
		t.Fatalf("post-close insert must not be durable, got %v", got)
	}
}

func TestWriteFileAtomicPreservesOldOnNoSpace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	if err := WriteFileAtomic(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v2" {
		t.Fatalf("read back: %q %v", got, err)
	}
	// no temp droppings
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("leftover files: %v", ents)
	}
}

// TestHeaderlessFinalSegmentRecreated is the deterministic form of the
// crash the kill -9 harness hits when the kill lands inside createSegment:
// the newest segment exists but is shorter than its header. It holds no
// record, so recovery must rewrite it and carry on — and the rewritten file
// must be a valid non-final segment on the start after that. The same
// damage anywhere an acknowledged record could sit still refuses to start.
func TestHeaderlessFinalSegmentRecreated(t *testing.T) {
	header := func(seq uint64) []byte {
		return binary.BigEndian.AppendUint64([]byte(segMagic), seq)
	}
	for _, tc := range []struct {
		name    string
		damage  func(t *testing.T, m *Manager, last uint64) // applied after a clean close
		refused string                                      // "": recovers; else the error must contain it
	}{
		{"final segment of 0 bytes", func(t *testing.T, m *Manager, last uint64) {
			writeFile(t, m.segPath(last+1), nil)
		}, ""},
		{"final segment one byte short of its header", func(t *testing.T, m *Manager, last uint64) {
			writeFile(t, m.segPath(last+1), header(last + 1)[:segHeaderLen-1])
		}, ""},
		{"short header on a non-final segment", func(t *testing.T, m *Manager, last uint64) {
			writeFile(t, m.segPath(last+1), header(last + 1)[:segHeaderLen-1])
			writeFile(t, m.segPath(last+2), header(last+2))
		}, "bad header"},
		{"wrong magic on the final segment", func(t *testing.T, m *Manager, last uint64) {
			h := header(last + 1)
			h[0] ^= 0xff
			writeFile(t, m.segPath(last+1), h)
		}, "bad header"},
		{"wrong sequence number on the final segment", func(t *testing.T, m *Manager, last uint64) {
			writeFile(t, m.segPath(last+1), header(last+7))
		}, "header names sequence"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, m := openDB(t, dir, Options{})
			mustExec(t, db, workload...)
			last := m.seq
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, m, last)

			if tc.refused != "" {
				if _, err := Open(dir, engine.NewDB(), Options{}); err == nil || !strings.Contains(err.Error(), tc.refused) {
					t.Fatalf("want a refusal mentioning %q, got %v", tc.refused, err)
				}
				return
			}
			for start := 1; start <= 2; start++ {
				db, m := openDB(t, dir, Options{})
				verifyWorkload(t, db)
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if got, err := os.ReadFile(m.segPath(last + 1)); err != nil || !bytes.Equal(got, header(last+1)) {
				t.Fatalf("recreated segment: %x, %v; want the bare header %x", got, err, header(last+1))
			}
		})
	}
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// withRecord returns seg with one more record: payload behind a correct
// length and checksum, which is all a CRC can vouch for.
func withRecord(seg []byte, kind engine.ChangeKind, body []byte) []byte {
	payload := append([]byte{byte(kind)}, body...)
	seg = binary.BigEndian.AppendUint32(append([]byte{}, seg...), uint32(len(payload)))
	seg = binary.BigEndian.AppendUint32(seg, crc32.Checksum(payload, crcTable))
	return append(seg, payload...)
}

// raggedTable encodes a table called name, with the schema of the workload's
// nums, whose INTEGER column has two rows and whose STRING column has one;
// badBoolTable one whose BOOLEAN value byte is 2. No encoder writes either.
func raggedTable(name string) []byte {
	long := storage.NewColumn("i", storage.TInt)
	long.AppendInt(1)
	long.AppendInt(2)
	short := storage.NewColumn("s", storage.TStr)
	short.AppendStr("one")
	buf := binary.BigEndian.AppendUint32(storage.AppendString(nil, name), 2)
	for _, col := range []*storage.Column{long, short} {
		buf = storage.AppendColumnValues(storage.AppendColumnHeader(buf, col, 0, col.Len()), col, 0, col.Len())
	}
	return buf
}

func badBoolTable(name string) []byte {
	col := storage.NewColumn("b", storage.TBool)
	col.AppendBool(true)
	buf := storage.EncodeTable(nil, &storage.Table{Name: name, Cols: []*storage.Column{col}})
	buf[len(buf)-1] = 2
	return buf
}

// TestReplayRefusesTablesNoEncoderWrites: a record whose checksum is right
// and whose table is ragged, or holds a BOOLEAN byte that is neither 0 nor
// 1, used to replay — the ragged table was installed and the next scan
// indexed past its short column. Open now names the record and installs
// nothing from it.
func TestReplayRefusesTablesNoEncoderWrites(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind engine.ChangeKind
		body []byte
		want string
	}{
		{"ragged CREATE TABLE", engine.ChangeCreateTable, raggedTable("hostile"), "ragged table"},
		{"ragged INSERT", engine.ChangeInsert, raggedTable("nums"), "ragged table"},
		{"boolean byte 2", engine.ChangeCreateTable, badBoolTable("hostile"), "invalid boolean byte"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, m := openDB(t, dir, Options{SnapshotBytes: -1})
			mustExec(t, db, workload...)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			seg, err := os.ReadFile(m.segPath(1))
			if err != nil {
				t.Fatal(err)
			}
			writeFile(t, m.segPath(1), withRecord(seg, tc.kind, tc.body))

			fresh := engine.NewDB()
			_, err = Open(dir, fresh, Options{})
			if core.KindOf(err) != core.KindIO || !strings.Contains(err.Error(), tc.want) ||
				!strings.Contains(err.Error(), "wal segment 1 offset") {
				t.Fatalf("Open: want an IO error naming the record and %q, got %v", tc.want, err)
			}
			conn := &engine.Conn{DB: fresh, User: "u", Password: "p"}
			if _, err := conn.Exec(`SELECT i FROM hostile`); err == nil {
				t.Error("the refused record's table was installed")
			}
			if got := queryInts(t, fresh, `SELECT COUNT(*) FROM nums`); got[0] != 4 {
				t.Errorf("nums has %d rows after the refused record, the records before it hold 4", got[0])
			}
		})
	}
}

// TestReplayMatchesLive runs each kind of change live against a logged
// database, then replays the directory into a fresh one: both must encode
// to the same snapshot bytes (tables, rows, function definitions, IDs and
// the ID counter).
func TestReplayMatchesLive(t *testing.T) {
	exec := func(sqls ...string) func(*engine.DB) error {
		return func(db *engine.DB) error {
			conn := &engine.Conn{DB: db, User: "u", Password: "p"}
			for _, sql := range sqls {
				if _, err := conn.Exec(sql); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for _, tc := range []struct {
		name string
		run  func(*engine.DB) error
	}{
		{"CREATE TABLE", exec(`CREATE TABLE Fresh (x INTEGER, y STRING)`)},
		{"DROP TABLE", exec(`DROP TABLE NUMS`)},
		{"INSERT", exec(`INSERT INTO nums VALUES (4, 'four'), (NULL, 'none')`)},
		{"COPY INTO", exec(`COPY INTO nums FROM 'rows.csv'`)},
		{"CREATE FUNCTION", exec(`CREATE FUNCTION Triple(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return [v * 3 for v in column]
}`)},
		{"CREATE OR REPLACE FUNCTION", exec(`CREATE OR REPLACE FUNCTION double_it(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return [v + v for v in column]
}`)},
		{"DROP FUNCTION", exec(`DROP FUNCTION DOUBLE_IT`)},
		{"RegisterTable", func(db *engine.DB) error {
			col := storage.NewColumn("x", storage.TFloat)
			col.AppendFloat(1.5)
			col.AppendNull()
			return db.RegisterTable(&storage.Table{Name: "Loaded", Cols: []*storage.Column{col}})
		}},
		{"RegisterGoUDF", func(db *engine.DB) error {
			return db.RegisterGoUDF("replay_go", func(xs []int64) []int64 { return xs })
		}},
		{"RegisterGoUDF over a PYTHON function", func(db *engine.DB) error {
			return db.RegisterGoUDF("double_it", func(xs []int64) []int64 { return xs })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, m := openDB(t, dir, Options{SnapshotBytes: -1})
			db.FS = core.NewMemFS(map[string]string{"rows.csv": "5,five\n6,\n"})
			mustExec(t, db, workload...)
			if err := tc.run(db); err != nil {
				t.Fatal(err)
			}
			live := encodeCatalog(t, db)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			db2, m2 := openDB(t, dir, Options{})
			defer m2.Close()
			if replayed := encodeCatalog(t, db2); !bytes.Equal(live, replayed) {
				t.Fatalf("replay differs from the live database: %d bytes live, %d replayed", len(live), len(replayed))
			}
		})
	}
}

func encodeCatalog(t *testing.T, db *engine.DB) []byte {
	t.Helper()
	var buf []byte
	err := db.Lock(func(cat *storage.Catalog) error {
		var err error
		buf, err = dump.EncodeCatalog(cat)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestShapedInsertBatchWritesTheSameLog: a 100-row literal INSERT batch run
// ad hoc (shaped, its literals bound) and run as the literal statement
// ExecAll parses leave byte-identical segments, and so does a second batch
// of the same shape served by the cached plan.
func TestShapedInsertBatchWritesTheSameLog(t *testing.T) {
	batch := func(base int) string {
		rows := make([]string, 100)
		for i := range rows {
			v := base + i
			rows[i] = "(" + strconv.Itoa(v) + ", " + strconv.Itoa(v) + ".5, 'r" + strconv.Itoa(v) + "', NULL)"
		}
		return "INSERT INTO ev VALUES " + strings.Join(rows, ", ")
	}
	stmts := []string{`CREATE TABLE ev (i INTEGER, f DOUBLE, s STRING, n INTEGER)`, batch(0), batch(1000)}
	segment := func(run func(*engine.Conn, string) error) []byte {
		dir := t.TempDir()
		db, m := openDB(t, dir, Options{SnapshotBytes: -1, Sync: SyncNever})
		conn := &engine.Conn{DB: db, User: "u", Password: "p"}
		for _, sql := range stmts {
			if err := run(conn, sql); err != nil {
				t.Fatalf("%.60s: %v", sql, err)
			}
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
	shaped := segment(func(c *engine.Conn, sql string) error { _, err := c.Exec(sql); return err })
	literal := segment(func(c *engine.Conn, sql string) error { _, err := c.ExecAll(sql); return err })
	if !bytes.Equal(shaped, literal) {
		t.Fatalf("segments differ: %d bytes shaped, %d literal", len(shaped), len(literal))
	}
}

package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/udfrt"
)

// failNext arms a persistence hook that vetoes the next commit.
type failNext struct {
	fail    bool
	changes []Change
}

func (h *failNext) hook(ch Change) error {
	if h.fail {
		h.fail = false
		return core.Errorf(core.KindIO, "disk full")
	}
	// Per the Change contract, hooks must not retain live pointers: the
	// table keeps mutating after the hook returns. Deep-copy via the codec,
	// like the WAL serializes records (insert changes carry a live table
	// plus the batch row range).
	if ch.Table != nil {
		enc := []byte(nil)
		if ch.To > ch.From {
			enc = storage.EncodeTableRange(nil, ch.Table, ch.From, ch.To)
		} else {
			enc = storage.EncodeTable(nil, ch.Table)
		}
		cp, err := storage.DecodeTable(storage.NewByteReader(enc))
		if err != nil {
			return err
		}
		ch.Table, ch.From, ch.To = cp, 0, 0
	}
	h.changes = append(h.changes, ch)
	return nil
}

func newHookedDB(t *testing.T) (*DB, *Conn, *failNext) {
	t.Helper()
	db := NewDB()
	h := &failNext{}
	db.SetPersistence(h.hook, nil)
	return db, &Conn{DB: db, User: "u", Password: "p"}, h
}

func TestHookVetoRollsBackCreateTable(t *testing.T) {
	db, c, h := newHookedDB(t)
	h.fail = true
	if _, err := c.Exec(`CREATE TABLE t (i INTEGER)`); err == nil {
		t.Fatal("want commit error")
	}
	err := db.Lock(func(cat *storage.Catalog) error {
		if _, err := cat.Table("t"); err == nil {
			t.Fatal("vetoed CREATE TABLE left the table behind")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// and the statement works once the hook recovers
	if _, err := c.Exec(`CREATE TABLE t (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
}

func TestHookVetoRollsBackInsert(t *testing.T) {
	_, c, h := newHookedDB(t)
	if _, err := c.Exec(`CREATE TABLE t (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	h.fail = true
	if _, err := c.Exec(`INSERT INTO t VALUES (2), (3)`); err == nil {
		t.Fatal("want commit error")
	}
	r, err := c.Exec(`SELECT i FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Table.NumRows() != 1 || r.Table.Cols[0].Ints[0] != 1 {
		t.Fatalf("vetoed INSERT must leave no rows behind, have %v", r.Table.Cols[0].Ints)
	}
}

func TestHookVetoRollsBackDropTable(t *testing.T) {
	_, c, h := newHookedDB(t)
	if _, err := c.Exec(`CREATE TABLE t (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO t VALUES (42)`); err != nil {
		t.Fatal(err)
	}
	h.fail = true
	if _, err := c.Exec(`DROP TABLE t`); err == nil {
		t.Fatal("want commit error")
	}
	r, err := c.Exec(`SELECT i FROM t`)
	if err != nil {
		t.Fatalf("vetoed DROP TABLE lost the table: %v", err)
	}
	if r.Table.NumRows() != 1 {
		t.Fatalf("vetoed DROP TABLE lost rows: %d", r.Table.NumRows())
	}
}

func TestHookVetoRollsBackFunctionDDL(t *testing.T) {
	_, c, h := newHookedDB(t)
	mk := `CREATE FUNCTION f(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return column
}`
	h.fail = true
	if _, err := c.Exec(mk); err == nil {
		t.Fatal("want commit error")
	}
	if _, err := c.Exec(`SELECT f(1)`); err == nil {
		t.Fatal("vetoed CREATE FUNCTION left the function behind")
	}
	if _, err := c.Exec(mk); err != nil {
		t.Fatal(err)
	}
	h.fail = true
	if _, err := c.Exec(`DROP FUNCTION f`); err == nil {
		t.Fatal("want commit error")
	}
	if _, err := c.Exec(`SELECT f(1)`); err != nil {
		t.Fatalf("vetoed DROP FUNCTION lost the function: %v", err)
	}

	// CREATE OR REPLACE: veto must restore the prior definition.
	replace := `CREATE OR REPLACE FUNCTION f(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return [v * 100 for v in column]
}`
	h.fail = true
	if _, err := c.Exec(replace); err == nil {
		t.Fatal("want commit error")
	}
	r, err := c.Exec(`SELECT f(7)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Table.Cols[0].Ints[0]; got != 7 {
		t.Fatalf("vetoed REPLACE left new body active: f(7) = %d", got)
	}
}

// TestCompiledCallableFollowsTheCatalogEntry: each definition of a
// function holds its own callable, compiled as it was installed, and
// computes with its own body; DROP takes the entry and its callable away.
func TestCompiledCallableFollowsTheCatalogEntry(t *testing.T) {
	c := newTestConn()
	var prior any
	for k := 1; k <= 3; k++ {
		mustExec(t, c, fmt.Sprintf(`CREATE OR REPLACE FUNCTION f(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return x * %d
}`, k))
		def, err := c.DB.cat.Function("f")
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := def.Compiled.(udfrt.Callable); !ok || def.Compiled == prior {
			t.Fatalf("after replacement %d f holds %v, before it %v", k, def.Compiled, prior)
		}
		prior = def.Compiled
		if got := mustExec(t, c, `SELECT f(7) AS v`).Table.Cols[0].Ints[0]; got != int64(7*k) {
			t.Fatalf("after replacement %d, f(7) = %d", k, got)
		}
	}
	mustExec(t, c, `DROP FUNCTION f`)
	if c.DB.cat.HasFunction("f") {
		t.Fatal("DROP left f in the catalog")
	}
}

// TestRestoreTakesBackARefusedCommit: Restore logs a snapshot one change
// at a time. When the log refuses one, the catalog is left as it was and
// what the log already took is taken back.
func TestRestoreTakesBackARefusedCommit(t *testing.T) {
	db := NewDB()
	var log []string
	db.SetPersistence(func(ch Change) error {
		if len(log) == 1 {
			log = append(log, "refused")
			return core.Errorf(core.KindIO, "disk full")
		}
		switch ch.Kind {
		case ChangeCreateTable:
			log = append(log, "create table "+ch.Table.Name)
		case ChangeDropTable:
			log = append(log, "drop table "+ch.Name)
		default:
			log = append(log, fmt.Sprintf("change %d", ch.Kind))
		}
		return nil
	}, nil)
	schema := storage.Schema{{Name: "x", Type: storage.TInt}}
	g := &storage.FuncDef{ID: 4, Name: "g", Language: "PYTHON", Body: "return x", Params: schema, Returns: schema}
	next := db.cat.NextID()
	err := db.Restore([]*storage.Table{storage.NewTable("a", schema), storage.NewTable("b", schema)}, []*storage.FuncDef{g}, 9)
	if core.KindOf(err) != core.KindIO {
		t.Fatalf("want a KindIO commit error, got %v", err)
	}
	if got := fmt.Sprint(log); got != "[create table a refused drop table a]" {
		t.Errorf("the log took %s", got)
	}
	if names, fns := db.cat.TableNames(), db.cat.Functions(); len(names) != 0 || len(fns) != 0 {
		t.Errorf("a refused restore left tables %v and %d functions", names, len(fns))
	}
	if got := db.cat.NextID(); got != next {
		t.Errorf("a refused restore moved the next function ID from %d to %d", next, got)
	}
}

// TestRefusedCommitLeavesStateAsItWas runs every entry that changes the
// catalog or table data against a refusing hook: each must fail with a
// KindIO error and leave the tables, their rows, the function definitions
// and IDs, and what the functions compute exactly as they were.
func TestRefusedCommitLeavesStateAsItWas(t *testing.T) {
	const goName = "veto_go"
	times := func(k int64) func([]int64) []int64 {
		return func(xs []int64) []int64 {
			out := make([]int64, len(xs))
			for i, x := range xs {
				out[i] = k * x
			}
			return out
		}
	}
	exec := func(sql string) func(*Conn) error {
		return func(c *Conn) error { _, err := c.Exec(sql); return err }
	}
	for _, tc := range []struct {
		name string
		run  func(*Conn) error
	}{
		{"CREATE TABLE", exec(`CREATE TABLE u (x INTEGER)`)},
		{"DROP TABLE", exec(`DROP TABLE T`)},
		{"CREATE FUNCTION", exec(`CREATE FUNCTION g(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return column
}`)},
		{"CREATE OR REPLACE FUNCTION", exec(`CREATE OR REPLACE FUNCTION f(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return [v * 100 for v in column]
}`)},
		{"DROP FUNCTION", exec(`DROP FUNCTION F`)},
		{"INSERT", exec(`INSERT INTO t VALUES (9), (10)`)},
		{"COPY INTO", exec(`COPY INTO t FROM 'rows.csv'`)},
		{"RegisterTable", func(c *Conn) error {
			return c.DB.RegisterTable(storage.NewTable("u", storage.Schema{{Name: "x", Type: storage.TInt}}))
		}},
		{"RegisterGoUDF", func(c *Conn) error { return c.DB.RegisterGoUDF(goName, times(3)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, c, h := newHookedDB(t)
			db.FS = core.NewMemFS(map[string]string{"rows.csv": "7\n8\n"})
			for _, sql := range []string{
				`CREATE TABLE t (i INTEGER)`,
				`INSERT INTO t VALUES (1), (2)`,
				`CREATE FUNCTION f(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return [v * 10 for v in column]
}`,
			} {
				if _, err := c.Exec(sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			if err := db.RegisterGoUDF(goName, times(2)); err != nil {
				t.Fatal(err)
			}
			before := dbState(c)
			h.fail = true
			if err := tc.run(c); core.KindOf(err) != core.KindIO {
				t.Fatalf("want a KindIO commit error, got %v", err)
			}
			if after := dbState(c); after != before {
				t.Fatalf("a refused commit changed the database:\nbefore:\n%s\nafter:\n%s", before, after)
			}
		})
	}
}

// dbState renders every table with its rows, every function with its ID and
// body, and what t's rows give through f and veto_go.
func dbState(c *Conn) string {
	var b strings.Builder
	_ = c.DB.Lock(func(cat *storage.Catalog) error {
		for _, name := range cat.TableNames() {
			tbl, _ := cat.Table(name)
			fmt.Fprintf(&b, "table %s %v:", tbl.Name, tbl.Schema())
			writeRows(&b, tbl)
		}
		for _, f := range cat.Functions() {
			fmt.Fprintf(&b, "function %d %s %s %q\n", f.ID, f.Name, f.Language, f.Body)
		}
		return nil
	})
	r, err := c.Exec(`SELECT f(i) AS a, veto_go(i) AS b FROM t`)
	if err != nil {
		fmt.Fprintf(&b, "probe: %v\n", err)
	} else {
		b.WriteString("probe:")
		writeRows(&b, r.Table)
	}
	return b.String()
}

func writeRows(b *strings.Builder, tbl *storage.Table) {
	for i := 0; i < tbl.NumRows(); i++ {
		b.WriteString(" (")
		for j, col := range tbl.Cols {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(col.FormatValue(i))
		}
		b.WriteString(")")
	}
	b.WriteString("\n")
}

func TestInsertBadRowIsAtomic(t *testing.T) {
	// Independent of any hook: a multi-row INSERT that fails on a later row
	// must not leave earlier rows applied.
	db := NewDB()
	c := &Conn{DB: db, User: "u", Password: "p"}
	if _, err := c.Exec(`CREATE TABLE t (i INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO t VALUES (1), ('oops')`); err == nil {
		t.Fatal("want type error")
	}
	r, err := c.Exec(`SELECT i FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Table.NumRows() != 0 {
		t.Fatalf("failed INSERT left %d rows behind", r.Table.NumRows())
	}
}

func TestHookSeesInsertBatch(t *testing.T) {
	_, c, h := newHookedDB(t)
	if _, err := c.Exec(`CREATE TABLE t (i INTEGER, s STRING)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO t VALUES (1, 'a'), (2, 'b')`); err != nil {
		t.Fatal(err)
	}
	var ins *Change
	for i := range h.changes {
		if h.changes[i].Kind == ChangeInsert {
			ins = &h.changes[i]
		}
	}
	if ins == nil {
		t.Fatal("no ChangeInsert delivered")
	}
	if ins.Name != "t" || ins.Table == nil || ins.Table.NumRows() != 2 {
		t.Fatalf("insert change: name=%q table=%v", ins.Name, ins.Table)
	}
	if ins.Table.Cols[1].Strs[1] != "b" {
		t.Fatalf("insert batch content wrong: %v", ins.Table.Cols[1].Strs)
	}
}

// TestDropLogsTheCatalogSpelling: a DROP names its object as the catalog
// spells it, whatever case the statement used.
func TestDropLogsTheCatalogSpelling(t *testing.T) {
	_, c, h := newHookedDB(t)
	for _, sql := range []string{
		`CREATE TABLE Gone (x INTEGER)`,
		`CREATE FUNCTION Fn(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return column
}`,
		`DROP TABLE GONE`,
		`DROP FUNCTION fN`,
	} {
		if _, err := c.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	n := len(h.changes)
	if n < 2 || h.changes[n-2].Name != "Gone" || h.changes[n-1].Name != "Fn" {
		t.Fatalf("logged drops: %+v", h.changes)
	}
}

func TestApplyChangeRoundTrip(t *testing.T) {
	// Changes captured from one DB replay into a fresh DB via ApplyChange —
	// the WAL recovery path — and reproduce identical state.
	db, c, h := newHookedDB(t)
	_ = db
	stmts := []string{
		`CREATE TABLE t (i INTEGER)`,
		`INSERT INTO t VALUES (1), (2)`,
		`CREATE TABLE gone (x INTEGER)`,
		`DROP TABLE gone`,
		`CREATE FUNCTION f(column INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return [v + 1 for v in column]
}`,
	}
	for _, s := range stmts {
		if _, err := c.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}

	db2 := NewDB()
	for _, ch := range h.changes {
		if err := db2.ApplyChange(ch); err != nil {
			t.Fatalf("ApplyChange(%v): %v", ch.Kind, err)
		}
	}
	c2 := &Conn{DB: db2, User: "u", Password: "p"}
	r, err := c2.Exec(`SELECT f(i) FROM t ORDER BY i`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Table.NumRows() != 2 || r.Table.Cols[0].Ints[1] != 3 {
		t.Fatalf("replayed state wrong: %v", r.Table.Cols[0].Ints)
	}
	if _, err := c2.Exec(`SELECT x FROM gone`); err == nil {
		t.Fatal("replay resurrected dropped table")
	}

	if err := db2.ApplyChange(Change{Kind: ChangeKind(99)}); err == nil {
		t.Fatal("unknown change kind must error")
	} else if !strings.Contains(err.Error(), "change kind") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestCreateFunctionRefusesABodyThatDoesNotParse: CREATE FUNCTION and
// CREATE OR REPLACE FUNCTION compile a PYTHON body before the catalog
// changes. A body that does not parse is refused with the error its first
// call would give, and the catalog, sys.functions and the log stay as they
// were: the working function a refused replacement names keeps answering.
// An accepted body's callable is kept for its first call.
func TestCreateFunctionRefusesABodyThatDoesNotParse(t *testing.T) {
	db, c, h := newHookedDB(t)
	const bad = `FUNCTION f(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON { x = 1 / y = (x + / return y }`
	const want = `syntax error: in UDF f: f:2: expected end of line, found OP("=")`
	functions := func() string {
		r := mustExec(t, c, `SELECT name, func FROM sys.functions`)
		return fmt.Sprint(r.Table.Cols[0].Strs, r.Table.Cols[1].Strs)
	}
	for _, create := range []string{"CREATE ", "CREATE OR REPLACE "} {
		if _, err := c.Exec(create + bad); err == nil || err.Error() != want {
			t.Errorf("%s: %v, want %s", create+bad, err, want)
		}
	}
	if got := functions(); got != "[] []" {
		t.Errorf("sys.functions after the refusals: %s", got)
	}
	if n := len(h.changes); n != 0 {
		t.Errorf("the log took %d changes", n)
	}

	mustExec(t, c, `CREATE FUNCTION f(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return x * 2 }`)
	before := functions()
	_ = db.Lock(func(cat *storage.Catalog) error {
		if def, err := cat.Function("f"); err != nil {
			t.Error(err)
		} else if _, ok := def.Compiled.(udfrt.Callable); !ok {
			t.Errorf("f's callable was not kept at CREATE: %v", def.Compiled)
		}
		return nil
	})
	if _, err := c.Exec("CREATE OR REPLACE " + bad); err == nil || err.Error() != want {
		t.Errorf("CREATE OR REPLACE over a working f: %v, want %s", err, want)
	}
	if got := functions(); got != before {
		t.Errorf("sys.functions after the refused replacement: %s, want %s", got, before)
	}
	if n := len(h.changes); n != 1 {
		t.Errorf("the log took %d changes, want the working CREATE only", n)
	}
	if got := mustExec(t, c, `SELECT f(21) AS v`).Table.Cols[0].Ints[0]; got != 42 {
		t.Fatalf("f(21) = %d after the refused replacement, want 42", got)
	}
}

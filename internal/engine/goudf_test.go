package engine

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

// scaleBy is a GO UDF that multiplies every value by k.
func scaleBy(k int64) func([]int64) []int64 {
	return func(xs []int64) []int64 {
		out := make([]int64, len(xs))
		for i, x := range xs {
			out[i] = k * x
		}
		return out
	}
}

// at7 is what the UDF fn answers for 7 on c.
func at7(t *testing.T, c *Conn, fn string) int64 {
	t.Helper()
	return mustExec(t, c, `SELECT `+fn+`(7) AS v`).Table.Cols[0].Ints[0]
}

// TestEachDBCallsItsOwnFunction: two databases in one process register the
// same name with different functions, and each calls its own.
func TestEachDBCallsItsOwnFunction(t *testing.T) {
	a, b := newTestConn(), newTestConn()
	if err := a.DB.RegisterGoUDF("f", scaleBy(2)); err != nil {
		t.Fatal(err)
	}
	if err := b.DB.RegisterGoUDF("f", scaleBy(3)); err != nil {
		t.Fatal(err)
	}
	if got, want := [2]int64{at7(t, a, "f"), at7(t, b, "f")}, [2]int64{14, 21}; got != want {
		t.Fatalf("f(7) on a and b = %v, want %v", got, want)
	}
}

// TestDeclarationFollowsRegistration: CREATE FUNCTION g ... LANGUAGE GO
// { f } takes the function f is registered with, under its contract. A
// declaration made before f exists runs once f is registered, and every
// declaration runs the new function once f is registered again; a
// registration whose commit is refused changes none of them. A CREATE OR
// REPLACE of f that names f, as devUDF's export writes, keeps f's function.
func TestDeclarationFollowsRegistration(t *testing.T) {
	db, c, h := newHookedDB(t)
	mustExec(t, c, `CREATE FUNCTION early(x INTEGER) RETURNS INTEGER LANGUAGE GO { f }`)
	if _, err := c.Exec(`SELECT early(7)`); core.KindOf(err) != core.KindName {
		t.Fatalf("a declaration of an unregistered function: %v, want a name error", err)
	}
	if err := db.RegisterGoUDF("f", scaleBy(2)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, `CREATE FUNCTION g(x INTEGER) RETURNS INTEGER LANGUAGE GO { F }`)
	if got := [3]int64{at7(t, c, "f"), at7(t, c, "g"), at7(t, c, "early")}; got != [3]int64{14, 14, 14} {
		t.Fatalf("f, g, early at 7 = %v, want 14 each", got)
	}
	if err := db.RegisterGoUDFElementwise("f", scaleBy(3)); err != nil {
		t.Fatal(err)
	}
	if got := [3]int64{at7(t, c, "f"), at7(t, c, "g"), at7(t, c, "early")}; got != [3]int64{21, 21, 21} {
		t.Fatalf("after re-registering f: f, g, early at 7 = %v, want 21 each", got)
	}
	_ = db.Lock(func(cat *storage.Catalog) error {
		for _, name := range []string{"f", "g", "early"} {
			if fn, _ := cat.Function(name); !fn.Elementwise {
				t.Errorf("%s did not take f's element-wise contract", name)
			}
		}
		return nil
	})
	h.fail = true
	if err := db.RegisterGoUDF("f", scaleBy(5)); core.KindOf(err) != core.KindIO {
		t.Fatalf("want a KindIO commit error, got %v", err)
	}
	if got := [2]int64{at7(t, c, "f"), at7(t, c, "g")}; got != [2]int64{21, 21} {
		t.Fatalf("after a refused registration: f, g at 7 = %v, want 21 each", got)
	}
	mustExec(t, c, `CREATE OR REPLACE FUNCTION f(val INTEGER) RETURNS INTEGER LANGUAGE GO { f }`)
	if got := at7(t, c, "f"); got != 21 {
		t.Fatalf("f re-declared over itself: f(7) = %d, want 21", got)
	}
}

// TestDropLeavesDeclarationItsFunction: dropping f leaves a declaration
// that took f's function running it.
func TestDropLeavesDeclarationItsFunction(t *testing.T) {
	c := newTestConn()
	if err := c.DB.RegisterGoUDF("f", scaleBy(2)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, `CREATE FUNCTION g(x INTEGER) RETURNS INTEGER LANGUAGE GO { f }`)
	mustExec(t, c, `DROP FUNCTION f`)
	if got := at7(t, c, "g"); got != 14 {
		t.Fatalf("g(7) after DROP FUNCTION f = %d, want 14", got)
	}
	if _, err := c.Exec(`SELECT f(7)`); core.KindOf(err) != core.KindName {
		t.Fatalf("f(7) after its DROP: %v, want a name error", err)
	}
}

// TestRegisterGoUDFRefusesReservedNames: a name a builtin owns is refused
// with CREATE FUNCTION's error before anything is committed; an entry under
// it could never be called.
func TestRegisterGoUDFRefusesReservedNames(t *testing.T) {
	db, c, h := newHookedDB(t)
	for _, name := range []string{"abs", "sum", "length", "sys_extract"} {
		want := fmt.Sprintf("constraint error: cannot create function %q: name is reserved", name)
		if err := db.RegisterGoUDF(name, scaleBy(2)); err == nil || err.Error() != want {
			t.Errorf("RegisterGoUDF(%s): %v, want %s", name, err, want)
		}
		if err := db.RegisterGoUDFElementwise(name, scaleBy(2)); err == nil || err.Error() != want {
			t.Errorf("RegisterGoUDFElementwise(%s): %v, want %s", name, err, want)
		}
	}
	if n := len(h.changes); n != 0 {
		t.Errorf("the log took %d changes", n)
	}
	_ = db.Lock(func(cat *storage.Catalog) error {
		if fns := cat.Functions(); len(fns) != 0 {
			t.Errorf("the catalog holds %d functions", len(fns))
		}
		return nil
	})
	if got := mustExec(t, c, `SELECT abs(-3) AS v`).Table.Cols[0].Ints[0]; got != 3 {
		t.Fatalf("abs(-3) = %d", got)
	}
}

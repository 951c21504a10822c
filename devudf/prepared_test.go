package devudf

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
)

func preparedClient(t *testing.T) *Client {
	t.Helper()
	params, _ := startServer(t,
		`CREATE TABLE nums (i INTEGER, s STRING)`,
		`INSERT INTO nums VALUES (1, 'a'), (2, 'b'), (3, 'a'), (4, 'c')`,
	)
	settings := DefaultSettings()
	settings.Connection = params
	c, err := Open(ctx, settings, WithFS(core.NewMemFS(nil)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClientQueryVariadic: the convenience path — bind arguments on the
// plain Query method route through a prepared statement.
func TestClientQueryVariadic(t *testing.T) {
	c := preparedClient(t)
	for want := int64(1); want <= 4; want++ {
		res, err := c.Query(ctx, `SELECT i FROM nums WHERE i = ?`, want)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tag != "SELECT 1" || res.Table.Cols[0].Ints[0] != want {
			t.Fatalf("bind %d: %q %v", want, res.Tag, res.Table.Cols[0].Ints)
		}
	}
	// argument-free calls still work (and return the new shape)
	res, err := c.Query(ctx, `SELECT count(*) AS n FROM nums`)
	if err != nil || res.Table.Cols[0].Ints[0] != 4 {
		t.Fatalf("%v %v", res, err)
	}
}

// TestClientPreparedStmt: the explicit Prepare surface, including reuse
// across many binds and NumParams.
func TestClientPreparedStmt(t *testing.T) {
	c := preparedClient(t)
	st, err := c.Prepare(ctx, `SELECT count(*) AS n FROM nums WHERE s = $1 AND i >= $2`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.NumParams() != 2 {
		t.Fatalf("NumParams = %d", st.NumParams())
	}
	counts := map[string]int64{"a": 2, "b": 1, "zz": 0}
	for s, want := range counts {
		res, err := st.Query(ctx, s, int64(0))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Table.Cols[0].Ints[0]; got != want {
			t.Fatalf("%q: got %d, want %d", s, got, want)
		}
	}
	if tag, err := st.Exec(ctx, "a", int64(3)); err != nil || tag != "SELECT 1" {
		t.Fatalf("%q %v", tag, err)
	}
}

// TestClientQueryArgsClosesItsStatement: every Query with bind arguments
// prepares, executes and closes. The server holds at most 64 statements
// per connection and the pool has four connections, so 320 distinct texts
// from four goroutines are refused part-way unless each call gives its
// slot back.
func TestClientQueryArgsClosesItsStatement(t *testing.T) {
	c := preparedClient(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				want := int64(i%4 + 1)
				sql := fmt.Sprintf(`SELECT i FROM nums WHERE i = ? AND %d >= 0`, g*80+i)
				res, err := c.Query(ctx, sql, want)
				if err != nil {
					t.Errorf("goroutine %d query %d: %v", g, i, err)
					return
				}
				if res.Table.NumRows() != 1 || res.Table.Cols[0].Ints[0] != want {
					t.Errorf("goroutine %d query %d: wrong rows %v", g, i, res.Table.Cols[0].Ints)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

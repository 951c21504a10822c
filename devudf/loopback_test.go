package devudf

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/script"
	"repro/internal/udfrt/gort"
)

// TestLocalConnAnswersWhatTheServerAnswersOrRefuses: an outer UDF reduces
// the result of a loopback query that calls an imported nested UDF. Run
// locally, each query shape either yields the server's value or is refused
// with a constraint error, raised by _conn.execute, that names the shape —
// never another value. A nested call that fails fails with the server's
// error text.
func TestLocalConnAnswersWhatTheServerAnswersOrRefuses(t *testing.T) {
	cases := []struct {
		udf, query, reduce string
		server             int64
		refuse             string // the shape the refusal names; "" when the local run must answer
		fails              string // the error both the server and the local run report
	}{
		{"lone", "SELECT dbl(i) AS v FROM t", "sum(res['v'])", 12, "", ""},
		{"unnamed", "SELECT DBL(i) FROM t WHERE i > 1", "sum(res['dbl'])", 10, "", ""},
		{"onerow", "SELECT total(i) AS s FROM t", "res['s']", 6, "", ""},
		{"table_star", "SELECT * FROM tf((SELECT i FROM t))", "sum(res['r'])", 12, "", ""},
		{"in_expr", "SELECT dbl(i) + 100 AS v FROM t", "sum(res['v'])", 312, "inside an expression", ""},
		{"filtered", "SELECT * FROM tf((SELECT i FROM t)) WHERE r > 2", "sum(res['r'])", 10, "WHERE", ""},
		{"limited", "SELECT dbl(i) AS v FROM t LIMIT 2", "sum(res['v'])", 6, "LIMIT", ""},
		{"nested_go", "SELECT dbl_go(i) AS v FROM t", "sum(res['v'])", 12, "", ""},
		{"no_rows", "SELECT total(i) AS s FROM t WHERE i > 5", "len(res['s'])", 0, "", ""},
		{"consts", "SELECT inc(41) AS v", "res['v']", 42, "", ""},
		{"uncast", "SELECT dbl(i * 1.5) AS v FROM t", "sum(res['v'])", 18, "", ""},
		{"too_few", "SELECT first_two(i) AS v FROM t", "sum(res['v'])", 0, "", "returned 2 rows for 3 input rows"},
	}
	setup := []string{
		`CREATE TABLE t (i INTEGER)`,
		`INSERT INTO t VALUES (1), (2), (3)`,
		`CREATE FUNCTION dbl(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return [v * 2 for v in x]
};`,
		`CREATE FUNCTION tf(x INTEGER) RETURNS TABLE(r INTEGER) LANGUAGE PYTHON {
    return {'r': [v * 2 for v in x]}
};`,
		`CREATE FUNCTION total(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return sum(x)
};`,
		`CREATE FUNCTION inc(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return x + 1
};`,
		`CREATE FUNCTION first_two(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    return [x[0], x[1]]
};`,
	}
	for _, tc := range cases {
		setup = append(setup, fmt.Sprintf(`CREATE FUNCTION %s(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    res = _conn.execute("%s")
    return %s
};`, tc.udf, tc.query, tc.reduce))
	}
	params, db := startServer(t, setup...)
	if err := db.RegisterGoUDF("dbl_go", func(x []int64) []int64 {
		out := make([]int64, len(x))
		for i, v := range x {
			out[i] = v * 2
		}
		return out
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gort.Unregister("dbl_go") })
	for _, tc := range cases {
		t.Run(tc.udf, func(t *testing.T) {
			query := "SELECT " + tc.udf + "(1) AS s"
			c := newClient(t, params, query)
			res, err := c.Query(ctx, query)
			if tc.fails != "" {
				if err == nil || !strings.Contains(err.Error(), tc.fails) {
					t.Fatalf("server: %v, want an error containing %q", err, tc.fails)
				}
			} else if err != nil {
				t.Fatal(err)
			} else if got := res.Table.Cols[0].Ints[0]; got != tc.server {
				t.Fatalf("server answered %d, the test expects %d", got, tc.server)
			}
			if _, err := c.ImportUDFs(ctx, tc.udf); err != nil {
				t.Fatal(err)
			}
			if _, err := c.ExtractInputs(ctx, tc.udf); err != nil {
				t.Fatal(err)
			}
			run, err := c.RunLocal(ctx, tc.udf)
			if tc.fails != "" {
				if err == nil || !strings.Contains(err.Error(), tc.fails) {
					t.Fatalf("local run: %v, want an error containing %q", err, tc.fails)
				}
				return
			}
			if tc.refuse == "" {
				if err != nil {
					t.Fatal(err)
				}
				if got, ok := script.AsInt(run.Value); !ok || got != tc.server {
					t.Fatalf("local run answered %s, the server %d", run.Value.Repr(), tc.server)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.refuse) {
				t.Fatalf("local run: %v, want a refusal naming %q", err, tc.refuse)
			}
			execute := c.localConn(ctx, script.NewInterp()).Methods["execute"]
			if _, err := execute(nil, []script.Value{script.StrVal(tc.query)}, nil); core.KindOf(err) != core.KindConstraint {
				t.Fatalf("_conn.execute: %v, want a constraint error", err)
			}
		})
	}
}

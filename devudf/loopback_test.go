package devudf

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/script"
)

// TestLocalConnAnswersWhatTheServerAnswersOrRefuses: an outer UDF reduces
// the result of a loopback query that calls an imported nested UDF. Run
// locally, each query shape either yields the server's value or is refused
// with a constraint error, raised by _conn.execute, that names the shape —
// never another value.
func TestLocalConnAnswersWhatTheServerAnswersOrRefuses(t *testing.T) {
	cases := []struct {
		udf, query, reduce string
		server             int64
		refuse             string // the shape the refusal names; "" when the local run must answer
	}{
		{"lone", "SELECT dbl(i) AS v FROM t", "sum(res['v'])", 12, ""},
		{"unnamed", "SELECT DBL(i) FROM t WHERE i > 1", "sum(res['dbl'])", 10, ""},
		{"onerow", "SELECT total(i) AS s FROM t", "res['s']", 6, ""},
		{"table_star", "SELECT * FROM tf((SELECT i FROM t))", "sum(res['r'])", 12, ""},
		{"in_expr", "SELECT dbl(i) + 100 AS v FROM t", "sum(res['v'])", 312, "inside an expression"},
		{"filtered", "SELECT * FROM tf((SELECT i FROM t)) WHERE r > 2", "sum(res['r'])", 10, "WHERE"},
		{"limited", "SELECT dbl(i) AS v FROM t LIMIT 2", "sum(res['v'])", 6, "LIMIT"},
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
	}
	for _, tc := range cases {
		setup = append(setup, fmt.Sprintf(`CREATE FUNCTION %s(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON {
    res = _conn.execute("%s")
    return %s
};`, tc.udf, tc.query, tc.reduce))
	}
	params, _ := startServer(t, setup...)
	for _, tc := range cases {
		t.Run(tc.udf, func(t *testing.T) {
			query := "SELECT " + tc.udf + "(1) AS s"
			c := newClient(t, params, query)
			res, err := c.Query(ctx, query)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Table.Cols[0].Ints[0]; got != tc.server {
				t.Fatalf("server answered %d, the test expects %d", got, tc.server)
			}
			if _, err := c.ImportUDFs(ctx, tc.udf); err != nil {
				t.Fatal(err)
			}
			if _, err := c.ExtractInputs(ctx, tc.udf); err != nil {
				t.Fatal(err)
			}
			run, err := c.RunLocal(ctx, tc.udf)
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

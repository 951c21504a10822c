package sqlparse

import (
	"strings"
	"testing"
)

// TestPlaceholderParseFormat pins the placeholder grammar: both styles
// parse everywhere an expression goes, Format round-trips them, and
// NumParams counts bind slots.
func TestPlaceholderParseFormat(t *testing.T) {
	cases := []struct {
		sql     string
		nparams int
		want    string // formatted; "" means just require round-trip
	}{
		{`SELECT ?`, 1, `SELECT ?`},
		{`SELECT $1`, 1, `SELECT $1`},
		{`SELECT i FROM t WHERE i > ? AND s = ?`, 2, ``},
		{`SELECT i FROM t WHERE i > $2 AND s = $1`, 2, ``},
		{`SELECT f(?, i, ?) FROM t`, 2, ``},
		{`SELECT $1 + $1 FROM t`, 1, ``},
		{`INSERT INTO t VALUES (?, ?), (?, ?)`, 4, ``},
		{`SELECT * FROM g($1) WHERE i < $2`, 2, ``},
		{`SELECT (SELECT count(*) FROM u WHERE j = ?) FROM t`, 1, ``},
		{`SELECT i FROM t GROUP BY i HAVING count(*) > ? ORDER BY i`, 1, ``},
		{`SELECT CAST(? AS DOUBLE)`, 1, ``},
		{`SELECT -? AS neg`, 1, ``},
	}
	for _, tc := range cases {
		st, err := Parse(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if got := NumParams(st); got != tc.nparams {
			t.Fatalf("%s: NumParams = %d, want %d", tc.sql, got, tc.nparams)
		}
		out := Format(st)
		if tc.want != "" && out != tc.want {
			t.Fatalf("%s: Format = %q, want %q", tc.sql, out, tc.want)
		}
		st2, err := Parse(out)
		if err != nil {
			t.Fatalf("%s: formatted %q does not reparse: %v", tc.sql, out, err)
		}
		if out2 := Format(st2); out2 != out {
			t.Fatalf("%s: not a fixed point: %q vs %q", tc.sql, out, out2)
		}
		if NumParams(st2) != tc.nparams {
			t.Fatalf("%s: round-trip changed NumParams", tc.sql)
		}
	}
}

// TestPlaceholderRejections pins the positioned parse errors: $0,
// out-of-range $n, sparse numbering, mixed styles, and a bare '$'.
func TestPlaceholderRejections(t *testing.T) {
	cases := []struct {
		sql  string
		frag string // must appear in the error
	}{
		{`SELECT $0`, `$0`},
		{`SELECT $0`, `line 1, column 8`},
		{`SELECT $99999999999999999999`, `line 1, column 8`},
		{`SELECT $70000 FROM t`, `out of range`},
		{`SELECT $2 FROM t`, `never binds $1`},
		{`SELECT $1, $3 FROM t`, `never binds $2`},
		{`SELECT ? + $1 FROM t`, `mix`},
		{`SELECT $1 + ? FROM t`, `mix`},
		{`SELECT $ FROM t`, `expected digits after '$'`},
		{`SELECT i FROM t LIMIT ?`, `expected number after LIMIT`},
	}
	for _, tc := range cases {
		_, err := Parse(tc.sql)
		if err == nil {
			t.Fatalf("%s: expected error", tc.sql)
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Fatalf("%s: error %q does not mention %q", tc.sql, err, tc.frag)
		}
	}
	// placeholder state must reset between statements of a script
	stmts, err := ParseAll(`SELECT ?; SELECT $1; SELECT ?`)
	if err != nil {
		t.Fatalf("per-statement placeholder styles should be independent: %v", err)
	}
	if len(stmts) != 3 {
		t.Fatalf("expected 3 statements, got %d", len(stmts))
	}
}

// TestParseLiteral pins the -param typing rule.
func TestParseLiteral(t *testing.T) {
	cases := []struct {
		in   string
		want any
	}{
		{`42`, int64(42)},
		{`-7`, int64(-7)},
		{`4.5`, 4.5},
		{`-1e3`, -1000.0},
		{`'it''s'`, `it's`},
		{`true`, true},
		{`FALSE`, false},
		{`null`, nil},
	}
	for _, tc := range cases {
		got, err := ParseLiteral(tc.in)
		if err != nil {
			t.Fatalf("%s: %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("%s: got %#v, want %#v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{``, `i`, `1 + 2`, `?`, `'x`, `SELECT 1`} {
		if _, err := ParseLiteral(bad); err == nil {
			t.Fatalf("%q: expected error", bad)
		}
	}
}

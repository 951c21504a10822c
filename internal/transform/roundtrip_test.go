package transform_test

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/script"
	"repro/internal/transfer"
	"repro/internal/transform"
)

var bodySeeds = []string{
	"x = a + b\nreturn x",
	"x = 1\nif x:\n    x = 2\nreturn x",
	bench.MeanDeviationFixedBody,
	"q = \"\"\"SELECT i\nFROM t\"\"\"\nreturn _conn.execute(q)",
	"\"\"\"Doc\n\nstring.\"\"\"\nreturn 1",
	"return '''a\n    b\n'''",
	"s = 'a\\\nb'\nreturn s",
	"x = [1,\n  2]\n# trailing\n  # deeper\n\n",
	"if a:\n\treturn 1\n\n   \nreturn 2",
	"r = _conn.execute(\"\"\"\n    SELECT * FROM f((SELECT i FROM t), %d)\n\"\"\" % a)",
	"x = 1 + \\\n2\nreturn x",
	"x = 1\r\nreturn x\r\n",
	"def g():\n    return 1\nreturn g()",
	"\\\n 0",
	"\\",
}

// FuzzWrapExtractRoundTrip requires export to give back the body import
// wrapped: ExtractBody(BuildLocalScript(b)) is b for any body that lexes,
// starts at column 0 as a stored body does, and parses once wrapped. Lexing
// alone is not enough: a bracket the body leaves open swallows the rest of
// the script into its last line. A blank body becomes `pass`; a line that is
// blank outside a string comes back empty, and trailing blank lines are
// dropped, as WrapFunction writes them. Neither function may panic on any
// input.
func FuzzWrapExtractRoundTrip(f *testing.F) {
	for _, b := range bodySeeds {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body string) {
		_, _ = transform.ExtractBody(body, "f")
		src := transform.BuildLocalScript(transform.LocalScriptInfo{Name: "f", Params: []string{"a"}, Body: body})
		got, extractErr := transform.ExtractBody(src, "f")
		toks, err := script.NewLexer(body).Tokens()
		if err != nil || strings.TrimSpace(body) == "" || toks[0].Kind == script.TokIndent {
			return
		}
		if _, err := script.Parse("f", transform.WrapFunction("f", []string{"a"}, body)); err != nil {
			return
		}
		if extractErr != nil {
			t.Fatalf("ExtractBody: %v\n%s", extractErr, src)
		}
		want := strings.Split(body, "\n")
		for len(want) > 0 && strings.TrimSpace(want[len(want)-1]) == "" {
			want = want[:len(want)-1]
		}
		lines := strings.Split(got, "\n")
		if len(lines) != len(want) {
			t.Fatalf("ExtractBody = %q, want %q", got, body)
		}
		for i, w := range want {
			if lines[i] != w && (strings.TrimSpace(w) != "" || lines[i] != "") {
				t.Fatalf("line %d: ExtractBody = %q, want %q", i+1, got, body)
			}
		}
	})
}

// TestExtractOptionsRoundTrip: the transfer options RewriteToExtract writes
// into the query are the ones the engine applies. For every seed and sample
// size, compressed and encrypted or not, the payload's header says what was
// asked, and the rows it holds are the ones transfer.SampleIndexes draws.
func TestExtractOptionsRoundTrip(t *testing.T) {
	const rows = 40
	c := newConn()
	values := make([]string, rows)
	for i := range values {
		values[i] = "(" + strconv.Itoa(3*i) + ")"
	}
	for _, stmt := range []string{
		"CREATE TABLE t (i INTEGER)",
		"INSERT INTO t VALUES " + strings.Join(values, ", "),
		"CREATE FUNCTION myudf(i INTEGER) RETURNS INTEGER LANGUAGE PYTHON {\nreturn 0\n}",
	} {
		if _, err := c.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	n := 0
	for _, seed := range []int64{0, -1, math.MaxInt64, math.MinInt64} {
		for _, k := range []int{0, 5, 1 << 30} {
			o := transfer.Options{Compress: n%2 == 1, Encrypt: n/2%2 == 1, SampleSize: k, Seed: seed}
			n++
			sql, err := transform.RewriteToExtract("SELECT myudf(i) FROM t", "myudf", o)
			if err != nil {
				t.Fatal(err)
			}
			r, err := c.Exec(sql)
			if err != nil {
				t.Fatalf("%+v: %s: %v", o, sql, err)
			}
			payload, _ := r.Table.Column("payload")
			packed := payload.Blobs[0]
			wantHdr := [2]byte{}
			if o.Compress {
				wantHdr[0] = 2 // the byte-planed DEFLATE form
			}
			if o.Encrypt {
				wantHdr[1] = 1
			}
			if [2]byte(packed[:2]) != wantHdr {
				t.Fatalf("%+v: payload header %v, want %v", o, packed[:2], wantHdr)
			}
			_, params, total, sample, err := engine.DecodeExtractPayload(packed, c.Password)
			if err != nil {
				t.Fatalf("%+v: %v", o, err)
			}
			idx := transfer.SampleIndexes(rows, k, seed)
			want := make([]string, len(idx))
			for i, j := range idx {
				want[i] = strconv.Itoa(3 * j)
			}
			got, _ := params.GetStr("i")
			if total != rows || sample != int64(len(idx)) || got.Repr() != "["+strings.Join(want, ", ")+"]" {
				t.Fatalf("%+v: %d of %d rows %s, want %d rows %v", o, sample, total, got.Repr(), len(idx), want)
			}
		}
	}
}

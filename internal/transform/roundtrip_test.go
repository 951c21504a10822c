package transform_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/script"
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

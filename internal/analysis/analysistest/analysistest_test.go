package analysistest

import (
	"go/ast"
	"testing"

	"repro/internal/analysis"
)

// boomAnalyzer reports every call of a function literally named "boom".
var boomAnalyzer = &analysis.Analyzer{
	Name: "boomcheck",
	Doc:  "report calls to boom",
	Run: func(pass *analysis.Pass) error {
		pass.Preorder(func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "boom" {
				pass.Reportf(call.Pos(), "boom call")
			}
			return true
		})
		return nil
	},
}

func TestRunSmoke(t *testing.T) {
	Run(t, "testdata", boomAnalyzer, "t1")
}

func TestParseWant(t *testing.T) {
	cases := []struct {
		text    string
		want    []string
		wantErr bool
	}{
		{text: "// a regular comment"},
		{text: "//lockblock:ok a directive is not a want"},
		{text: `// want "one"`, want: []string{"one"}},
		{text: "// want `back quoted`", want: []string{"back quoted"}},
		{text: `// want "one" "two"`, want: []string{"one", "two"}},
		{text: `//want "tight"`, want: []string{"tight"}},
		{text: `// want 123`, wantErr: true},
		{text: `// want`},
		{text: `// want `}, // trailing space trims away: prose, not a want
		{text: `// want ;`, wantErr: true},
	}
	for _, c := range cases {
		got, err := parseWant(c.text)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseWant(%q): expected error, got %v", c.text, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseWant(%q): %v", c.text, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseWant(%q) = %v, want %v", c.text, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseWant(%q)[%d] = %q, want %q", c.text, i, got[i], c.want[i])
			}
		}
	}
}

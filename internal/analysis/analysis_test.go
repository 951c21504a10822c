package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

const passSrc = `// Package p is the framework test subject.
package p

type Column struct{ n int }

func (c *Column) Reset() { c.n = 0 }

//tool:marked on the declaration
func annotated() {
	c := &Column{}
	c.Reset()
	helper()
	//tool:inner inside the body
	_ = len("x")
}

//tool:first
//tool:second with args
func stacked() {}

func helper() {
	_ = make([]int, 1) //tool:same line attach
}

// tool:spaced is prose, not a directive (note the space).
func prose() {}
`

// buildPass parses and typechecks passSrc (no imports, so no importer is
// needed) and wraps it in a Pass.
func buildPass(t *testing.T, filename string) *analysis.Pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, passSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := load.NewInfo()
	pkg, err := (&types.Config{}).Check("q/internal/testpkg", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &analysis.Pass{
		Analyzer:  &analysis.Analyzer{Name: "t", Doc: "t", Run: func(*analysis.Pass) error { return nil }},
		Fset:      fset,
		Files:     []*ast.File{f},
		Pkg:       pkg,
		TypesInfo: info,
		Report:    func(analysis.Diagnostic) {},
	}
}

func findFunc(pass *analysis.Pass, name string) *ast.FuncDecl {
	var out *ast.FuncDecl
	pass.Preorder(func(n ast.Node) bool {
		if fd, ok := n.(*ast.FuncDecl); ok && fd.Name.Name == name {
			out = fd
		}
		return true
	})
	return out
}

func TestPathHasSegments(t *testing.T) {
	cases := []struct {
		path, want string
		ok         bool
	}{
		{"repro/internal/wire", "internal/wire", true},
		{"a/internal/wire", "internal/wire", true},
		{"internal/wire", "internal/wire", true},
		{"repro/internal/wireframe", "internal/wire", false},
		{"repro/notinternal/wire", "internal/wire", false},
		{"repro/internal/engine/vec", "internal/engine/vec", true},
		{"repro/internal/engine", "internal/engine/vec", false},
		{"devudf", "devudf", true},
		{"repro/cmd/devudf", "devudf", true},
	}
	for _, c := range cases {
		if got := analysis.PathHasSegments(c.path, c.want); got != c.ok {
			t.Errorf("PathHasSegments(%q, %q) = %v, want %v", c.path, c.want, got, c.ok)
		}
	}
}

func TestTypePredicates(t *testing.T) {
	pass := buildPass(t, "p.go")
	col := pass.Pkg.Scope().Lookup("Column").Type()
	if !analysis.NamedFrom(col, "internal/testpkg", "Column") {
		t.Errorf("NamedFrom failed on the defined type")
	}
	if !analysis.NamedFrom(types.NewPointer(col), "internal/testpkg", "Column") {
		t.Errorf("NamedFrom failed to deref a pointer")
	}
	if analysis.NamedFrom(col, "internal/other", "Column") {
		t.Errorf("NamedFrom matched the wrong path")
	}
	if analysis.NamedFrom(col, "internal/testpkg", "Row") {
		t.Errorf("NamedFrom matched the wrong name")
	}
	if analysis.NamedFrom(types.Typ[types.Int], "internal/testpkg", "Column") {
		t.Errorf("NamedFrom matched a basic type")
	}

	errType := types.Universe.Lookup("error").Type()
	if !analysis.IsErrorType(errType) {
		t.Errorf("IsErrorType(error) = false")
	}
	if analysis.IsErrorType(types.Typ[types.String]) {
		t.Errorf("IsErrorType(string) = true")
	}
	if analysis.IsErrorType(nil) {
		t.Errorf("IsErrorType(nil) = true")
	}
}

func TestPassFileAndReport(t *testing.T) {
	pass := buildPass(t, "p.go")
	fd := findFunc(pass, "annotated")
	if pass.FileOf(fd.Pos()) != pass.Files[0] {
		t.Errorf("FileOf missed the containing file")
	}
	if pass.FileOf(token.NoPos) != nil {
		t.Errorf("FileOf(NoPos) found a file")
	}
	if pass.InTestFile(fd.Pos()) {
		t.Errorf("p.go is not a test file")
	}

	testPass := buildPass(t, "p_test.go")
	if !testPass.InTestFile(findFunc(testPass, "annotated").Pos()) {
		t.Errorf("p_test.go positions should be in a test file")
	}

	var got []analysis.Diagnostic
	pass.Report = func(d analysis.Diagnostic) { got = append(got, d) }
	pass.Reportf(fd.Pos(), "count %d", 2)
	if len(got) != 1 || got[0].Message != "count 2" || got[0].Pos != fd.Pos() {
		t.Errorf("Reportf recorded %+v", got)
	}
}

func TestDirectives(t *testing.T) {
	pass := buildPass(t, "p.go")

	annotated := findFunc(pass, "annotated")
	if ds := pass.Attached(annotated, "tool"); len(ds) != 1 || ds[0].Verb != "marked" || ds[0].Args != "on the declaration" {
		t.Errorf("Attached(annotated) = %+v", ds)
	}
	if ds := pass.FuncDirectives(annotated.Body.Pos(), "tool"); len(ds) != 1 || ds[0].Verb != "marked" {
		t.Errorf("FuncDirectives(annotated) = %+v", ds)
	}
	if !pass.HasDirective(annotated, "tool", "marked") {
		t.Errorf("HasDirective missed the declaration directive")
	}
	if pass.HasDirective(annotated, "tool", "absent") {
		t.Errorf("HasDirective invented a verb")
	}
	if pass.HasDirective(annotated, "other", "marked") {
		t.Errorf("HasDirective matched the wrong tool")
	}

	// Stacked directives above one declaration are all attached.
	stacked := findFunc(pass, "stacked")
	ds := pass.Attached(stacked, "tool")
	if len(ds) != 2 {
		t.Fatalf("Attached(stacked) = %+v, want both of the stack", ds)
	}
	verbs := []string{ds[0].Verb, ds[1].Verb}
	if !(verbs[0] == "first" && verbs[1] == "second" || verbs[0] == "second" && verbs[1] == "first") {
		t.Errorf("stacked verbs = %v", verbs)
	}
	// Only a directive that carries a reason suppresses.
	if pass.HasDirective(stacked, "tool", "first") {
		t.Errorf("HasDirective accepted the bare //tool:first")
	}
	if !pass.HasDirective(stacked, "tool", "second") {
		t.Errorf("HasDirective missed the reasoned //tool:second")
	}

	// Same-line attachment inside a body, visible from the statement.
	helper := findFunc(pass, "helper")
	var makeCall ast.Node
	ast.Inspect(helper, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			makeCall = c
		}
		return true
	})
	if !pass.HasDirective(makeCall, "tool", "same") {
		t.Errorf("same-line directive not attached to the statement")
	}

	// "// tool:spaced" has a space after the slashes: prose, not a directive.
	prose := findFunc(pass, "prose")
	if ds := pass.Attached(prose, "tool"); len(ds) != 0 {
		t.Errorf("prose comment parsed as directive: %+v", ds)
	}
}

func TestCalleeFunc(t *testing.T) {
	pass := buildPass(t, "p.go")
	annotated := findFunc(pass, "annotated")
	var calls []*ast.CallExpr
	ast.Inspect(annotated, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, c)
		}
		return true
	})
	var names []string
	for _, c := range calls {
		if fn := pass.CalleeFunc(c); fn != nil {
			names = append(names, fn.Name())
		}
	}
	joined := strings.Join(names, ",")
	if joined != "Reset,helper" {
		t.Errorf("resolved callees = %q, want method and function but not the builtin", joined)
	}
}

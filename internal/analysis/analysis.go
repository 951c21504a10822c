// Package analysis is a small, dependency-free analog of the
// golang.org/x/tools/go/analysis model: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics.
//
// The repro module is deliberately dependency-free, so instead of importing
// x/tools this package reimplements the narrow slice of its API the
// monetlint suite needs (see cmd/monetlint). Analyzers written against it
// keep the familiar shape — Name/Doc/Run(*Pass) — which keeps a future
// migration to the real framework mechanical.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name is the vet-style identifier, e.g. "errwrap".
	Name string
	// Doc is a one-paragraph description; the first line is the summary.
	Doc string
	// Run applies the check to one package.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned within pass.Fset.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	directives map[*ast.File]map[int][]Directive
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Preorder walks every file of the package in depth-first order.
func (p *Pass) Preorder(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// ForEachFunc visits every function body in the package — declarations
// and function literals — skipping test files. Literals nested inside a
// declaration are visited after it. This is the entry point of the
// function-at-a-time analyzer (lockblock): fn receives the enclosing
// *ast.FuncDecl (nil for a literal not inside one) and the body.
func (p *Pass) ForEachFunc(fn func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt)) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || p.InTestFile(fd.Pos()) {
				continue
			}
			fn(fd, nil, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					fn(fd, lit, lit.Body)
				}
				return true
			})
		}
		// Literals in package-level variable initializers.
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || p.InTestFile(gd.Pos()) {
				continue
			}
			ast.Inspect(gd, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					fn(nil, lit, lit.Body)
				}
				return true
			})
		}
	}
}

// FileOf returns the *ast.File whose range contains pos, or nil.
func (p *Pass) FileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// InTestFile reports whether pos lies in a _test.go file. The monetlint
// analyzers enforce production invariants; test files are exempt.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// PathHasSegments reports whether want ("internal/wire") occurs in path
// ("repro/internal/wire") as a run of complete, consecutive slash-separated
// segments. Analyzers scope themselves with segment suffixes rather than
// exact import paths so that analysistest fixtures (loaded under synthetic
// roots like "a/internal/wire") scope identically to the real packages.
func PathHasSegments(path, want string) bool {
	ps := strings.Split(path, "/")
	ws := strings.Split(want, "/")
	for i := 0; i+len(ws) <= len(ps); i++ {
		match := true
		for j := range ws {
			if ps[i+j] != ws[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// NamedFrom reports whether t (or the pointee, if t is a pointer) is a
// defined type with the given name whose package path ends in the given
// segments.
func NamedFrom(t types.Type, pathSegments, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return PathHasSegments(obj.Pkg().Path(), pathSegments)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// IsErrorType reports whether t implements the error interface.
func IsErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface)
}

// CalleeFunc resolves the called function or method of call, or nil for
// calls through function-typed variables, built-ins, and conversions.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := p.TypesInfo.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = p.TypesInfo.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

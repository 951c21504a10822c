// Package colinvariant defines an analyzer guarding the two structural
// invariants of storage.Column established in PRs 1 and 4:
//
//  1. Outside internal/storage, internal/engine/vec, and _test.go files,
//     Column values must be built through constructors (storage.NewColumn,
//     storage.BindValue, storage.ColumnOver) — a composite literal elsewhere
//     bypasses the type/buffer consistency the constructors maintain.
//  2. Inside kernel packages (internal/engine/vec), a function that stores
//     a non-nil Nulls bitmap into a Column must also zero the value slots
//     under the set bits (call zeroUnderNulls) or be annotated
//     //colinvariant:zeroed — the zero-copy GO-UDF contract: user code
//     receives the raw slices, and garbage under NULL bits leaks values
//     across rows.
package colinvariant

import (
	"go/ast"

	"repro/internal/analysis"
)

// allowedLiteralZones are package path segments where Column composite
// literals are legitimate: the defining package and the vector kernels.
var allowedLiteralZones = []string{"internal/storage", "internal/engine/vec"}

// kernelZones are package path segments where the zero-under-NULL rule
// applies.
var kernelZones = []string{"internal/engine/vec"}

// Analyzer is the colinvariant check.
var Analyzer = &analysis.Analyzer{
	Name: "colinvariant",
	Doc: `enforce storage.Column construction and zero-under-NULL invariants

Composite literals of storage.Column outside internal/storage,
internal/engine/vec, and _test.go files must use the constructors. In vec
kernels, storing a non-nil Nulls bitmap requires zeroing the value slots
under set bits (zeroUnderNulls) or the //colinvariant:zeroed annotation.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	literalsAllowed := inZones(pass, allowedLiteralZones)
	if !literalsAllowed {
		checkLiterals(pass)
	}
	if inZones(pass, kernelZones) {
		checkKernels(pass)
	}
	return nil
}

func inZones(pass *analysis.Pass, zones []string) bool {
	for _, z := range zones {
		if analysis.PathHasSegments(pass.Pkg.Path(), z) {
			return true
		}
	}
	return false
}

// checkLiterals reports storage.Column composite literals outside the
// allowed zones.
func checkLiterals(pass *analysis.Pass) {
	pass.Preorder(func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || pass.InTestFile(n.Pos()) {
			return true
		}
		tv, ok := pass.TypesInfo.Types[lit]
		if !ok || !analysis.NamedFrom(tv.Type, "internal/storage", "Column") {
			return true
		}
		if pass.HasDirective(lit, "colinvariant", "ok") {
			return true
		}
		pass.Reportf(lit.Pos(), "storage.Column composite literal outside internal/storage and the vec kernels; use storage.NewColumn/storage.BindValue so buffers stay consistent (or annotate //colinvariant:ok)")
		return true
	})
}

// checkKernels enforces the zero-under-NULL rule per function.
func checkKernels(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			checkKernelFunc(pass, fd)
		}
	}
}

func checkKernelFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var stores []ast.Node
	zeroes := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if callsZeroHelper(pass, n) {
				zeroes = true
			}
		case *ast.KeyValueExpr:
			// Column{..., Nulls: expr} with a non-nil expr.
			key, ok := n.Key.(*ast.Ident)
			if !ok || key.Name != "Nulls" || isNil(n.Value) {
				return true
			}
			if obj, ok := pass.TypesInfo.Uses[key]; ok && obj.Pkg() != nil &&
				analysis.PathHasSegments(obj.Pkg().Path(), "internal/storage") {
				stores = append(stores, n)
			}
		case *ast.AssignStmt:
			// col.Nulls = expr with a non-nil expr.
			for i, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Nulls" {
					continue
				}
				if i < len(n.Rhs) && isNil(n.Rhs[i]) {
					continue
				}
				tv, ok := pass.TypesInfo.Types[sel.X]
				if ok && analysis.NamedFrom(tv.Type, "internal/storage", "Column") {
					stores = append(stores, sel)
				}
			}
		}
		return true
	})
	if len(stores) == 0 || zeroes {
		return
	}
	if pass.HasDirective(fd, "colinvariant", "zeroed") {
		return
	}
	for _, s := range stores {
		pass.Reportf(s.Pos(), "%s sets a Nulls bitmap without zeroing value slots under the set bits; call zeroUnderNulls (zero-copy GO-UDF contract) or annotate the function //colinvariant:zeroed", fd.Name.Name)
	}
}

// callsZeroHelper recognizes calls to the canonical zeroing helper.
func callsZeroHelper(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "zeroUnderNulls"
	case *ast.IndexExpr: // explicit instantiation zeroUnderNulls[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name == "zeroUnderNulls"
		}
	}
	return false
}

func isNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

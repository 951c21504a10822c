package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// oracleFiles hold refSelect and everything it calls in this package.
var oracleFiles = []string{"ref_select_test.go", "ref_kernels_test.go"}

// oracleMayCall is every production function of this package the oracle
// is allowed to reach: what is not under differential test. Anything
// else it called would make engine and oracle agree by construction.
var oracleMayCall = map[string]bool{
	// catalog and table-function resolution
	"queryLogTable": true, "evalExtract": true, "callTableUDF": true,
	// UDF invocation on already-evaluated argument columns (builtins go
	// through the scalarBuiltins table), bind slots, casts
	"callScalarUDF": true, "bindColumn": true, "castColumn": true,
	// row accessors and naming
	"compareAt": true, "truthyAt": true, "numericAt": true, "itemName": true,
	// syntactic predicates over the AST
	"hasAggregate": true, "exprIsColumnar": true,
}

// TestOracleCallsOnlyAllowedCode parses the oracle's files and fails on a
// call to any function, or any method of Conn, DB, frame or evalCtx, that this
// package declares outside its test files unless it is on the list above
// (matched by name: there are no types here) — so filter, tryFilterFast,
// project, evalAggregateSelect, aggregateOver, groupRows, distinctRows,
// evalExpr and the rest of the SELECT skeleton are out of reach — and on
// any use of package vec.
func TestOracleCallsOnlyAllowedCode(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(name string) *ast.File {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	production := map[string]bool{}
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			for _, d := range parse(name).Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && (fd.Recv == nil || engineReceiver(fd.Recv.List[0].Type)) {
					production[fd.Name.Name] = true
				}
			}
		}
	}
	for _, must := range []string{"filter", "tryFilterFast", "project", "evalAggregateSelect",
		"aggregateOver", "groupRows", "distinctRows", "evalExpr", "evalSelect"} {
		if !production[must] {
			t.Fatalf("%s is no longer a production function; update this test's premise", must)
		}
	}
	for _, name := range oracleFiles {
		f := parse(name)
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); strings.HasSuffix(path, "/vec") {
				t.Errorf("%s imports %s", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee *ast.Ident
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				callee = fn
			case *ast.SelectorExpr:
				callee = fn.Sel
			default:
				return true
			}
			if production[callee.Name] && !oracleMayCall[callee.Name] {
				t.Errorf("%s: oracle calls production %s", fset.Position(call.Pos()), callee.Name)
			}
			return true
		})
	}
}

func engineReceiver(typ ast.Expr) bool {
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, ok := typ.(*ast.Ident)
	return ok && (id.Name == "Conn" || id.Name == "DB" || id.Name == "frame" || id.Name == "evalCtx")
}

package load_test

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/load"
)

func fixtureLoader() *load.Loader {
	return load.New(load.Config{SrcDirs: []string{filepath.Join("testdata", "src")}})
}

func TestLoadPathFixture(t *testing.T) {
	l := fixtureLoader()
	pkg, err := l.LoadPath("m1")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Path != "m1" || pkg.Types.Name() != "m1" {
		t.Errorf("loaded %q (package %s)", pkg.Path, pkg.Types.Name())
	}
	if len(pkg.Files) != 1 {
		t.Errorf("expected 1 file, got %d", len(pkg.Files))
	}
	if pkg.Info == nil || len(pkg.Info.Defs) == 0 {
		t.Errorf("type info was not collected")
	}
	// The fixture dependency and the stdlib import both resolved.
	var upperCalls int
	ast.Inspect(pkg.Files[0], func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if obj, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil {
				if obj.Pkg().Path() == "strings" || obj.Pkg().Path() == "m2" {
					upperCalls++
				}
			}
		}
		return true
	})
	if upperCalls != 2 {
		t.Errorf("resolved %d of 2 cross-package callees", upperCalls)
	}

	again, err := l.LoadPath("m1")
	if err != nil {
		t.Fatal(err)
	}
	if again != pkg {
		t.Errorf("second LoadPath did not hit the memo")
	}
}

func TestLoadPathUnknown(t *testing.T) {
	if _, err := fixtureLoader().LoadPath("does/not/exist"); err == nil {
		t.Fatal("expected an error for an unresolvable path")
	}
}

func TestImportCycle(t *testing.T) {
	_, err := fixtureLoader().LoadPath("c1")
	if err == nil || !strings.Contains(err.Error(), "import cycle") {
		t.Fatalf("expected an import cycle error, got %v", err)
	}
}

func TestTypeError(t *testing.T) {
	if _, err := fixtureLoader().LoadPath("badtype"); err == nil {
		t.Fatal("expected a typecheck error")
	}
}

func TestImportUnsafe(t *testing.T) {
	pkg, err := fixtureLoader().ImportFrom("unsafe", "", 0)
	if err != nil || pkg != types.Unsafe {
		t.Fatalf("ImportFrom(unsafe) = %v, %v", pkg, err)
	}
}

func TestModulePackages(t *testing.T) {
	l := load.New(load.Config{
		ModulePath: "mod",
		ModuleDir:  filepath.Join("testdata", "mod"),
	})
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"mod", "mod/sub"}
	if len(paths) != len(want) || paths[0] != want[0] || paths[1] != want[1] {
		t.Fatalf("ModulePackages = %v, want %v (testdata, test-only dirs and the nested module skipped)", paths, want)
	}
	pkg, err := l.LoadPath("mod/sub")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Name() != "sub" {
		t.Errorf("loaded package %q", pkg.Types.Name())
	}
}

func TestModulePackagesWithoutModule(t *testing.T) {
	if _, err := fixtureLoader().ModulePackages(); err == nil {
		t.Fatal("expected an error when no module is configured")
	}
}

func TestNewInfo(t *testing.T) {
	info := load.NewInfo()
	if info.Types == nil || info.Defs == nil || info.Uses == nil ||
		info.Implicits == nil || info.Selections == nil || info.Scopes == nil || info.Instances == nil {
		t.Fatal("NewInfo left a map nil")
	}
}

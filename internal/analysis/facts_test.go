package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

type testFact struct {
	N int
	S string
}

func (*testFact) AFact() {}

// typecheck parses and typechecks src as package path, returning a Pass
// wired to the given store.
func typecheckPass(t *testing.T, path, src string, store *FactStore) *Pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Pass{
		Analyzer:  &Analyzer{Name: "testan"},
		Fset:      fset,
		Files:     []*ast.File{f},
		Pkg:       pkg,
		TypesInfo: info,
		Facts:     store,
	}
}

func lookupObj(t *testing.T, p *Pass, name string) types.Object {
	t.Helper()
	obj := p.Pkg.Scope().Lookup(name)
	if obj == nil {
		t.Fatalf("no object %q in %s", name, p.Pkg.Path())
	}
	return obj
}

func TestObjectKeyForms(t *testing.T) {
	p := typecheckPass(t, "example.com/k", `package k

func Top() {}

type T struct{}

func (T) Val() {}
func (*T) Ptr() {}

var V int
`, nil)
	cases := map[string]string{
		"Top": "example.com/k.Top",
		"V":   "example.com/k.V",
	}
	for name, want := range cases {
		got, ok := ObjectKey(lookupObj(t, p, name))
		if !ok || got != want {
			t.Errorf("ObjectKey(%s) = %q, %v; want %q", name, got, ok, want)
		}
	}
	tObj := lookupObj(t, p, "T").Type().(*types.Named)
	for i := 0; i < tObj.NumMethods(); i++ {
		m := tObj.Method(i)
		got, ok := ObjectKey(m)
		if !ok {
			t.Errorf("ObjectKey(%s) not ok", m.Name())
			continue
		}
		want := map[string]string{
			"Val": "example.com/k.(T).Val",
			"Ptr": "example.com/k.(*T).Ptr",
		}[m.Name()]
		if got != want {
			t.Errorf("ObjectKey(%s) = %q, want %q", m.Name(), got, want)
		}
	}
}

func TestObjectKeyRejectsLocals(t *testing.T) {
	p := typecheckPass(t, "example.com/loc", `package loc

func F() {
	x := 1
	_ = x
}
`, nil)
	var local types.Object
	for _, obj := range p.TypesInfo.Defs {
		if obj != nil && obj.Name() == "x" {
			local = obj
		}
	}
	if local == nil {
		t.Fatal("local x not found")
	}
	if key, ok := ObjectKey(local); ok {
		t.Errorf("ObjectKey(local x) = %q, want not-ok", key)
	}
}

func TestObjectFactRoundTrip(t *testing.T) {
	store := NewFactStore()
	p := typecheckPass(t, "example.com/rt", `package rt

func Exported() {}
`, store)
	obj := lookupObj(t, p, "Exported")
	p.ExportObjectFact(obj, &testFact{N: 7, S: "seven"})

	var got testFact
	if !p.ImportObjectFact(obj, &got) {
		t.Fatal("fact not found after export")
	}
	if got.N != 7 || got.S != "seven" {
		t.Errorf("fact = %+v, want {7 seven}", got)
	}

	// A different analyzer name must not see the fact.
	other := *p
	other.Analyzer = &Analyzer{Name: "otheran"}
	var miss testFact
	if other.ImportObjectFact(obj, &miss) {
		t.Error("fact leaked across analyzer names")
	}
}

func TestNilStoreIsNoOp(t *testing.T) {
	p := typecheckPass(t, "example.com/nil", `package nilpkg

func F() {}
`, nil)
	obj := lookupObj(t, p, "F")
	p.ExportObjectFact(obj, &testFact{N: 1}) // must not panic
	var got testFact
	if p.ImportObjectFact(obj, &got) {
		t.Error("import from nil store succeeded")
	}
}

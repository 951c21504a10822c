package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunPatternsNameDeclaredTests: every alternative of every `go test
// -run` pattern in the CI workflow matches at least one Test or Fuzz
// function declared in the packages that command names. go test runs a
// pattern that matches nothing and passes, so a test renamed or deleted
// without its CI step would otherwise leave that step green while it
// checks nothing in the test's place.
func TestCIRunPatternsNameDeclaredTests(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	// One command per line: fold the shell's line continuations.
	text := strings.ReplaceAll(string(src), "\\\n", " ")
	checked := 0
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		i := slices.Index(fields, "go")
		if i < 0 || i+1 >= len(fields) || fields[i+1] != "test" {
			continue
		}
		var pattern string
		var pkgs []string
		for j, f := range fields {
			switch {
			case f == "-run" && j+1 < len(fields):
				pattern = fields[j+1]
			case strings.HasPrefix(f, "./"):
				pkgs = append(pkgs, f)
			}
		}
		if pattern == "" {
			continue
		}
		declared := declaredTests(t, pkgs)
		for _, alt := range strings.Split(strings.Trim(pattern, `'"`), "|") {
			checked++
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml: -run alternative %q: %v", alt, err)
				continue
			}
			if !slices.ContainsFunc(declared, re.MatchString) {
				t.Errorf("ci.yml: -run alternative %q matches no Test or Fuzz function in %v", alt, pkgs)
			}
		}
	}
	if checked == 0 {
		t.Fatal("ci.yml: found no go test -run pattern to check")
	}
}

// declaredTests lists the Test and Fuzz functions declared in the _test.go
// files of the package directories pkgs.
func declaredTests(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	for _, pkg := range pkgs {
		files, _ := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if len(files) == 0 {
			t.Errorf("ci.yml: %s is not a package directory with tests", pkg)
		}
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil &&
					(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}

package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
	checked := 0
	for _, fields := range goTestCommands(t) {
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

// TestEveryFuzzerRunsInFuzzSmoke: every Fuzz function declared in the
// repository is the -fuzz target of a go test command in the CI workflow
// that names the fuzzer's package. Plain go test only replays a fuzzer's
// seeds and corpus; one that CI never runs with -fuzz explores nothing.
func TestEveryFuzzerRunsInFuzzSmoke(t *testing.T) {
	targets := map[string]bool{} // "<package dir> <fuzzer>"
	for _, fields := range goTestCommands(t) {
		i := slices.Index(fields, "-fuzz")
		if i < 0 || i+1 >= len(fields) {
			continue
		}
		for _, f := range fields {
			if strings.HasPrefix(f, "./") {
				targets[filepath.Clean(f)+" "+strings.Trim(fields[i+1], `'"^$`)] = true
			}
		}
	}
	dirs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir // .git, build output, fuzz corpora
		case strings.HasSuffix(path, "_test.go"):
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fuzzers := 0
	for dir := range dirs {
		for _, name := range declaredTests(t, []string{dir}) {
			if !strings.HasPrefix(name, "Fuzz") {
				continue
			}
			fuzzers++
			if !targets[dir+" "+name] {
				t.Errorf("ci.yml: no go test -fuzz %s ./%s/ runs the fuzzer declared there", name, dir)
			}
		}
	}
	if fuzzers == 0 {
		t.Fatal("found no Fuzz function in the repository")
	}
}

// TestReadmeLayoutNamesEveryPackage: README's "Repo layout" section names
// every top-level directory under internal/ and cmd/, spelled out or in an
// internal/{a,b,...} list, and every internal/ or cmd/ name it gives
// exists, so a package added or deleted without its layout line fails here.
func TestReadmeLayoutNamesEveryPackage(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, layout, ok := strings.Cut(string(readme), "\n## Repo layout\n")
	if !ok {
		t.Fatal(`README.md: no "## Repo layout" section`)
	}
	layout, _, _ = strings.Cut(layout, "\n## ")
	named := map[string]bool{}
	for _, m := range regexp.MustCompile(`\b(internal|cmd)/(?:\{([^}]*)\}|(\w+))`).FindAllStringSubmatch(layout, -1) {
		for _, name := range strings.Split(m[2]+m[3], ",") {
			named[m[1]+"/"+strings.TrimSpace(name)] = true
		}
	}
	for name := range named {
		if fi, err := os.Stat(name); err != nil || !fi.IsDir() {
			t.Errorf("README.md Repo layout names %s, which is not a directory", name)
		}
	}
	for _, parent := range []string{"internal", "cmd"} {
		ents, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.IsDir() && !named[parent+"/"+e.Name()] {
				t.Errorf("README.md Repo layout does not name %s/%s", parent, e.Name())
			}
		}
	}
}

// goTestCommands returns the fields of each go test command in the CI
// workflow, one command per line once the shell's continuations are folded.
func goTestCommands(t *testing.T) [][]string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var cmds [][]string
	for _, line := range strings.Split(strings.ReplaceAll(string(src), "\\\n", " "), "\n") {
		fields := strings.Fields(line)
		if i := slices.Index(fields, "go"); i >= 0 && i+1 < len(fields) && fields[i+1] == "test" {
			cmds = append(cmds, fields)
		}
	}
	return cmds
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

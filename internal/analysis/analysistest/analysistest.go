// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against // want "regex" comments — the same contract as
// golang.org/x/tools/go/analysis/analysistest, reimplemented over the
// stdlib-only loader. Fixtures live in GOPATH-style trees:
//
//	testdata/src/<importpath>/*.go
//
// A fixture line expecting a diagnostic carries a trailing comment:
//
//	ch <- v // want "channel send while holding"
//
// Multiple expectations may follow one want; each is a quoted or
// backquoted Go string holding a regexp. Diagnostics and expectations must
// match one-to-one per line.
package analysistest

import (
	"fmt"
	"go/scanner"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// Run loads each fixture package under testdata/src, applies a, and
// reports mismatches between diagnostics and want comments through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	loader := load.New(load.Config{SrcDirs: []string{filepath.Join(testdata, "src")}})
	for _, path := range paths {
		t.Run(path, func(t *testing.T) {
			t.Helper()
			pkg, err := loader.LoadPath(path)
			if err != nil {
				t.Fatalf("loading fixture %s: %v", path, err)
			}
			var diags []analysis.Diagnostic
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      loader.Fset(),
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				t.Fatalf("%s: %s: %v", a.Name, pkg.Path, err)
			}
			check(t, loader.Fset(), pkg, diags)
		})
	}
}

type key struct {
	file string
	line int
}

// check matches diagnostics against want expectations.
func check(t *testing.T, fset *token.FileSet, pkg *load.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		filename := fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				patterns, err := parseWant(c.Text)
				if err != nil {
					t.Fatalf("%s: %v", fset.Position(c.Pos()), err)
				}
				for _, p := range patterns {
					rx, err := regexp.Compile(p)
					if err != nil {
						t.Fatalf("%s: bad want regexp: %v", fset.Position(c.Pos()), err)
					}
					k := key{filename, fset.Position(c.Pos()).Line}
					wants[k] = append(wants[k], rx)
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		matched := false
		for i, rx := range wants[k] {
			if rx.MatchString(d.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	var leftover []string
	for k, rxs := range wants {
		for _, rx := range rxs {
			leftover = append(leftover, fmt.Sprintf("%s:%d: no diagnostic matching %q", k.file, k.line, rx))
		}
	}
	sort.Strings(leftover)
	for _, l := range leftover {
		t.Errorf("%s", l)
	}
}

// parseWant extracts the expectation regexps from one comment's text, or
// nil if it is not a want comment.
func parseWant(text string) ([]string, error) {
	body, ok := strings.CutPrefix(text, "//")
	if !ok {
		return nil, nil
	}
	body = strings.TrimSpace(body)
	rest, ok := strings.CutPrefix(body, "want ")
	if !ok {
		return nil, nil
	}
	var out []string
	var sc scanner.Scanner
	fset := token.NewFileSet()
	file := fset.AddFile("want", -1, len(rest))
	sc.Init(file, []byte(rest), nil, 0)
	for {
		_, tok, lit := sc.Scan()
		if tok == token.EOF || tok == token.SEMICOLON {
			break
		}
		if tok != token.STRING {
			return nil, fmt.Errorf("want expectation must be a string literal, got %s", tok)
		}
		s, err := strconv.Unquote(lit)
		if err != nil {
			return nil, fmt.Errorf("bad want literal %s: %w", lit, err)
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("want comment with no expectations")
	}
	return out, nil
}

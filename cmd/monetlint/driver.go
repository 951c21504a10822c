package main

import (
	"bufio"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// lint loads the packages the patterns name from the module around the
// working directory and applies the analyzers to each. Findings, the summary
// line and operational errors go to stderr. It returns the exit code:
// 0 clean, 2 findings, 1 operational error.
func lint(patterns []string, analyzers []*analysis.Analyzer, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "monetlint: %v\n", err)
		return 1
	}
	modDir, modPath, err := findModule()
	if err != nil {
		return fail(err)
	}
	loader := load.New(load.Config{ModulePath: modPath, ModuleDir: modDir})
	paths, err := expand(patterns, loader, modDir, modPath)
	if err != nil {
		return fail(err)
	}
	counts := map[string]int{}
	for _, path := range paths {
		pkg, err := loader.LoadPath(path)
		if err != nil {
			return fail(err)
		}
		if err := run(pkg, analyzers, loader.Fset(), counts, stderr); err != nil {
			return fail(err)
		}
	}
	if len(counts) > 0 {
		fmt.Fprintln(stderr, summaryLine(counts))
		return 2
	}
	return 0
}

// expand turns package patterns into module import paths: "./..." and
// "dir/..." wildcards walk the module tree, "./dir" resolves against the
// working directory, anything else is taken as an import path.
func expand(patterns []string, loader *load.Loader, modDir, modPath string) ([]string, error) {
	var paths []string
	for _, pat := range patterns {
		base, wildcard := strings.CutSuffix(pat, "/...")
		if pat == "..." {
			base, wildcard = ".", true
		}
		base, err := resolveImportPath(base, modDir, modPath)
		if err != nil {
			return nil, err
		}
		if !wildcard {
			paths = append(paths, base)
			continue
		}
		all, err := loader.ModulePackages()
		if err != nil {
			return nil, err
		}
		n := len(paths)
		for _, p := range all {
			if p == base || strings.HasPrefix(p, base+"/") {
				paths = append(paths, p)
			}
		}
		if len(paths) == n {
			return nil, fmt.Errorf("no packages match %s", pat)
		}
	}
	return paths, nil
}

// resolveImportPath maps a filesystem-relative pattern ("./internal/wire",
// ".") to its module import path; patterns already written as import paths
// pass through. Paths outside the module are an error.
func resolveImportPath(pat, modDir, modPath string) (string, error) {
	if !strings.HasPrefix(pat, "./") && pat != "." {
		return pat, nil
	}
	abs, err := filepath.Abs(pat)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(modDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", pat, modPath)
	}
	if rel == "." {
		return modPath, nil
	}
	return modPath + "/" + filepath.ToSlash(rel), nil
}

// run applies the analyzers to one package, prints its findings in position
// order and adds them to the per-analyzer counts.
func run(pkg *load.Package, analyzers []*analysis.Analyzer, fset *token.FileSet, counts map[string]int, stderr io.Writer) error {
	type record struct {
		analyzer string
		pos      token.Position
		msg      string
	}
	var recs []record
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report: func(d analysis.Diagnostic) {
				recs = append(recs, record{a.Name, fset.Position(d.Pos), d.Message})
			},
		}
		if err := a.Run(pass); err != nil {
			return fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i].pos, recs[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	for _, rec := range recs {
		counts[rec.analyzer]++
		fmt.Fprintf(stderr, "%s: %s [%s]\n", rec.pos, rec.msg, rec.analyzer)
	}
	return nil
}

// summaryLine renders the non-zero exit summary: total findings plus a
// per-analyzer breakdown, so CI logs are diagnosable at a glance.
func summaryLine(counts map[string]int) string {
	total := 0
	names := make([]string, 0, len(counts))
	for name, n := range counts {
		if n == 0 {
			continue
		}
		total += n
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s:%d", name, counts[name]))
	}
	noun := "findings"
	if total == 1 {
		noun = "finding"
	}
	return fmt.Sprintf("monetlint: %d %s (%s)", total, noun, strings.Join(parts, " "))
}

// findModule walks up from the working directory to go.mod and reads the
// module path.
func findModule() (dir, path string, err error) {
	dir, err = os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		gm := filepath.Join(dir, "go.mod")
		if _, statErr := os.Stat(gm); statErr == nil {
			f, err := os.Open(gm)
			if err != nil {
				return "", "", err
			}
			defer f.Close()
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s: no module directive", gm)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// unitConfig is the JSON the go command writes for each vet unit — the
// contract of golang.org/x/tools/go/analysis/unitchecker, which this file
// reimplements over the stdlib gc-export-data importer.
type unitConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runUnit analyzes one vet unit described by cfgPath. Exit codes follow
// unitchecker: 0 clean, 1 operational failure, 2 diagnostics reported.
//
// Facts: the unit's imports each come with a .vetx file (PackageVetx)
// holding the facts their own analysis exported; those are merged into
// one store before analysis, and the full store — imported facts
// included, for transitivity — is written to VetxOutput afterward. Units
// marked VetxOnly (dependencies outside the vet pattern) are typechecked
// and run through the fact-declaring analyzers only, diagnostics
// discarded.
func runUnit(cfgPath string, analyzers []*analysis.Analyzer, opts options) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fatalUnit("%v", err)
	}
	var cfg unitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatalUnit("parsing %s: %v", cfgPath, err)
	}

	analysis.RegisterFactTypes(analyzers)
	facts := analysis.NewFactStore()
	for _, vetx := range cfg.PackageVetx {
		fdata, err := os.ReadFile(vetx)
		if err != nil {
			fatalUnit("%v", err)
		}
		if err := facts.Decode(fdata); err != nil {
			fatalUnit("%s: %v", vetx, err)
		}
	}
	writeVetx := func() {
		if cfg.VetxOutput == "" {
			return
		}
		out, err := facts.Encode()
		if err != nil {
			fatalUnit("%v", err)
		}
		if err := os.WriteFile(cfg.VetxOutput, out, 0o666); err != nil {
			fatalUnit("%v", err)
		}
	}

	if cfg.VetxOnly {
		analyzers = withFacts(analyzers)
		// Facts come from the module's packages only, exactly as in the
		// source-mode driver, so both report the same findings: a
		// standard-library unit just threads the imported facts through.
		if len(analyzers) == 0 || standardUnit(&cfg) {
			writeVetx()
			return
		}
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeVetx()
				return
			}
			fatalUnit("%v", err)
		}
		files = append(files, f)
	}

	imp := &unitImporter{fset: fset, cfg: &cfg}
	imp.gc = importer.ForCompiler(fset, compilerFor(cfg.Compiler), imp.lookup)
	info := load.NewInfo()
	tconf := types.Config{
		Importer:  imp,
		GoVersion: languageVersion(cfg.GoVersion),
		Error:     func(error) {}, // collect silently; first error returned by Check
	}
	pkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return
		}
		fatalUnit("typecheck %s: %v", cfg.ImportPath, err)
	}

	lp := &load.Package{Path: cfg.ImportPath, Dir: cfg.Dir, Files: files, Types: pkg, Info: info}
	r := &runner{
		fset:   fset,
		facts:  facts,
		opts:   opts,
		counts: map[string]int{},
		times:  map[string]time.Duration{},
	}
	n := r.run(lp, analyzers, !cfg.VetxOnly)
	writeVetx()
	if opts.timing {
		printTiming(os.Stdout, opts.jsonOut, r.times)
	}
	if n > 0 {
		fmt.Fprintln(os.Stderr, summaryLine(r.counts))
		os.Exit(2)
	}
}

// standardUnit reports whether the unit's sources live under GOROOT/src
// (the go command exports GOROOT to the tool). cfg.Standard cannot say:
// it lists the unit's standard imports, never the unit itself.
func standardUnit(cfg *unitConfig) bool {
	goroot := os.Getenv("GOROOT")
	if goroot == "" {
		return false
	}
	// a module unit's relative Dir has no path from GOROOT: Rel errors
	rel, err := filepath.Rel(filepath.Join(goroot, "src"), cfg.Dir)
	return err == nil && filepath.IsLocal(rel)
}

func fatalUnit(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "monetlint: "+format+"\n", args...)
	os.Exit(1)
}

// compilerFor maps the unit's compiler to one the stdlib importer knows.
func compilerFor(c string) string {
	if c == "" {
		return "gc"
	}
	return c
}

var goMinor = regexp.MustCompile(`^go\d+\.\d+`)

// languageVersion trims a toolchain version ("go1.24.0") to the language
// version go/types accepts ("go1.24").
func languageVersion(v string) string {
	if m := goMinor.FindString(v); m != "" {
		return m
	}
	return ""
}

// unitImporter resolves imports through the export data files the go
// command listed in the unit config.
type unitImporter struct {
	fset *token.FileSet
	cfg  *unitConfig
	gc   types.Importer
}

func (u *unitImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return u.gc.Import(path)
}

func (u *unitImporter) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	return u.Import(path)
}

// lookup feeds the gc importer the export data file for an import path,
// mapping through the unit's ImportMap (vendoring, test variants).
func (u *unitImporter) lookup(path string) (io.ReadCloser, error) {
	if canon, ok := u.cfg.ImportMap[path]; ok {
		path = canon
	}
	file, ok := u.cfg.PackageFile[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q in vet unit %s", path, u.cfg.ID)
	}
	return os.Open(file)
}

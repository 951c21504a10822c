// Package load type-checks packages from source using only the standard
// library: module-local import paths resolve to directories under the
// module root, fixture roots (GOPATH-style src trees) shadow everything,
// and the standard library is delegated to the compiler's source importer.
// It is the package loader behind `monetlint ./...` and the analysistest
// harness.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Config parameterizes a Loader.
type Config struct {
	// Fset receives all parsed file positions.
	Fset *token.FileSet
	// ModulePath/ModuleDir map module-local import paths to directories
	// (e.g. "repro" → the repo root). Empty ModulePath disables this.
	ModulePath string
	ModuleDir  string
	// SrcDirs are GOPATH-style roots (dir/<importpath>/*.go) searched
	// before the module mapping; analysistest points one at testdata/src.
	SrcDirs []string
}

// Package is one type-checked package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads and memoizes packages. It implements types.ImporterFrom.
type Loader struct {
	cfg     Config
	ctxt    build.Context
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// New returns a Loader for cfg.
func New(cfg Config) *Loader {
	if cfg.Fset == nil {
		cfg.Fset = token.NewFileSet()
	}
	// The source importer resolves through the global build context; force
	// cgo off there too so stdlib packages with cgo variants (net, os/user)
	// typecheck via their pure-Go fallbacks without needing a C compiler.
	build.Default.CgoEnabled = false
	ctxt := build.Default
	return &Loader{
		cfg:     cfg,
		ctxt:    ctxt,
		std:     importer.ForCompiler(cfg.Fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// Fset returns the loader's file set.
func (l *Loader) Fset() *token.FileSet { return l.cfg.Fset }

// dirFor resolves an import path to a source directory, if the path is one
// this loader owns (fixture roots first, then the module mapping).
func (l *Loader) dirFor(path string) (string, bool) {
	for _, sd := range l.cfg.SrcDirs {
		dir := filepath.Join(sd, filepath.FromSlash(path))
		if hasGoFiles(dir) {
			return dir, true
		}
	}
	if mp := l.cfg.ModulePath; mp != "" && (path == mp || strings.HasPrefix(path, mp+"/")) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, mp), "/")
		return filepath.Join(l.cfg.ModuleDir, filepath.FromSlash(rel)), true
	}
	return "", false
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

func hasNonTestGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.dirFor(path); ok {
		pkg, err := l.Load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the package at dir under import path path.
func (l *Loader) Load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.cfg.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewInfo()
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.cfg.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("%s: %w (and %d more)", path, typeErrs[0], len(typeErrs)-1)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadPath loads the package for an import path resolvable by this loader.
func (l *Loader) LoadPath(path string) (*Package, error) {
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("cannot resolve %q to a source directory", path)
	}
	return l.Load(path, dir)
}

// ModulePackages walks the module tree and returns the import paths of all
// packages containing buildable Go files, skipping testdata, vendor,
// hidden directories and nested modules (a sub-directory with its own
// go.mod) — the expansion of the "./..." pattern, as the go command
// expands it.
func (l *Loader) ModulePackages() ([]string, error) {
	if l.cfg.ModulePath == "" {
		return nil, fmt.Errorf("loader has no module configured")
	}
	var paths []string
	root := l.cfg.ModuleDir
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if p != root {
			name := d.Name()
			if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module
			}
		}
		if !hasNonTestGoFiles(p) {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		ip := l.cfg.ModulePath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, ip)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// NewInfo allocates a types.Info with every map analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

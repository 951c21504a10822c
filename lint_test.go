package repro_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The lint tests hold eight properties of the module's non-test files.
// Seven are syntactic: no context.Background()/TODO() under internal/wire,
// internal/engine or devudf (ctxflow); no storage.Column literal outside
// internal/storage and internal/engine/vec; no fmt.Errorf outside package
// main (core.Errorf keeps an error operand as its cause); nothing registers
// at a distance — no blank import of a repro/ package and no func init that
// calls into another package, so what a package does is what its callers
// call; no file-scope sync.Mutex or sync.RWMutex, whose state belongs on
// the value that owns it; no .(*core.Error) type assertion outside
// internal/core, so an error's text without its kind tag has one rule,
// core.Message; no call of a catalog write (CreateTable, DropTable,
// InstallFunction, DropFunction, SetNextID) outside internal/storage and
// internal/engine, whose DB.apply is the catalog's one writer. The eighth,
// lockblock, needs types: no channel
// operation, UDF call or network IO under a mutex the same function holds,
// in internal/wire and internal/debug, unless the operation's own line
// says "//lockblock:ok <reason>".

// moduleFiles parses every non-test file of the module once, keyed by
// slash-separated directory. testdata, dot and underscore directories
// and nested modules, such as benchmark/, are not part of it.
var moduleFiles = sync.OnceValues(func() (map[string][]*ast.File, error) {
	files := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != ".":
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" ||
				strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") {
				return filepath.SkipDir
			}
		case strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
			f, err := parser.ParseFile(sourceFset, path, nil, parser.ParseComments)
			dir := filepath.ToSlash(filepath.Dir(path))
			files[dir] = append(files[dir], f)
			return err
		}
		return nil
	})
	return files, err
})

// TestLintSyntaxRules runs the seven syntactic rules over the module.
func TestLintSyntaxRules(t *testing.T) {
	dirs, err := moduleFiles()
	if err != nil || len(dirs) < 20 {
		t.Fatalf("parsed %d directories: %v", len(dirs), err)
	}
	for dir, files := range dirs {
		for _, f := range files {
			for _, msg := range syntaxFindings(dir, f) {
				t.Error(msg)
			}
		}
	}
}

// TestLintLockblock type-checks internal/wire and internal/debug from
// source and runs lockblock over them.
func TestLintLockblock(t *testing.T) {
	dirs, err := moduleFiles()
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"internal/wire", "internal/debug"} {
		for _, msg := range lockblockFindings(t, "repro/"+dir, dirs[dir]) {
			t.Error(msg)
		}
	}
}

// inDir reports whether the slash-separated directory dir is one of roots
// or below one.
func inDir(dir string, roots ...string) bool {
	return slices.ContainsFunc(roots, func(r string) bool { return dir == r || strings.HasPrefix(dir, r+"/") })
}

// importName is the name file f refers to the package path by, or "".
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if imp.Path.Value == strconv.Quote(path) {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path[strings.LastIndex(path, "/")+1:]
		}
	}
	return ""
}

// isSel reports whether e is pkg.name with pkg the file's name for an import.
func isSel(e ast.Expr, pkg string, names ...string) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || pkg == "" {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg && slices.Contains(names, sel.Sel.Name)
}

// syntaxFindings applies the seven syntactic rules to file f, which sits
// in the slash-separated directory dir of the module.
func syntaxFindings(dir string, f *ast.File) []string {
	var out []string
	report := func(n ast.Node, format string, args ...any) {
		out = append(out, fmt.Sprintf("%s: %s", sourceFset.Position(n.Pos()), fmt.Sprintf(format, args...)))
	}
	imports := map[string]bool{} // the names f calls other packages by
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if name := importName(f, path); name == "_" && strings.HasPrefix(path, "repro/") {
			report(imp, "blank import of %s links a package for what its init does; call what you use where you use it", path)
		} else {
			imports[name] = true
		}
	}
	ctxflow := inDir(dir, "internal/wire", "internal/engine", "devudf")
	columns := !inDir(dir, "internal/storage", "internal/engine/vec")
	catalogWriter := inDir(dir, "internal/storage", "internal/engine")
	context, fmtPkg, storage := importName(f, "context"), importName(f, "fmt"), importName(f, "repro/internal/storage")
	syncPkg, corePkg := importName(f, "sync"), importName(f, "repro/internal/core")
	for _, decl := range f.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				typ := vs.Type
				if typ == nil && len(vs.Values) == 1 {
					if lit, ok := ast.Unparen(vs.Values[0]).(*ast.CompositeLit); ok {
						typ = lit.Type
					}
				}
				if isSel(typ, syncPkg, "Mutex", "RWMutex") {
					report(vs, "package-level mutex %s: a lock shared by every caller in the process; put it on the value that owns the state", vs.Names[0].Name)
				}
			}
		}
	}
	elided := map[*ast.CompositeLit]ast.Expr{} // the type an element literal leaves out
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Name.Name != "init" || n.Recv != nil || n.Body == nil {
				break
			}
			ast.Inspect(n.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Obj == nil && imports[x.Name] {
							report(call, "func init calls %s.%s: a package registers nothing at a distance; let the caller call it", x.Name, sel.Sel.Name)
						}
					}
				}
				return true
			})
		case *ast.CallExpr:
			if ctxflow && isSel(n.Fun, context, "Background", "TODO") {
				report(n, "context.%s() in a request path detaches it from caller cancellation; thread the caller's ctx through", n.Fun.(*ast.SelectorExpr).Sel.Name)
			}
			if f.Name.Name != "main" && isSel(n.Fun, fmtPkg, "Errorf") {
				report(n, "fmt.Errorf outside package main; use core.Errorf or core.Wrapf, which keep an error operand as the cause")
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && !catalogWriter && slices.Contains(catalogWrites, sel.Sel.Name) {
				report(n, "%s call outside internal/storage and internal/engine; engine.DB.apply is the catalog's one writer", sel.Sel.Name)
			}
		case *ast.TypeAssertExpr:
			if star, ok := n.Type.(*ast.StarExpr); ok && isSel(star.X, corePkg, "Error") {
				report(n, "type assertion to *core.Error outside internal/core; core.Message gives its text, core.KindOf its kind")
			}
		case *ast.CompositeLit:
			typ := n.Type
			if typ == nil {
				typ = elided[n] // the parent is visited first
			}
			if columns && isSel(typ, storage, "Column") {
				report(n, "storage.Column composite literal outside internal/storage and the vec kernels; use storage.NewColumn or storage.BindValue")
			}
			var elt ast.Expr
			switch typ := typ.(type) {
			case *ast.ArrayType:
				elt = typ.Elt
			case *ast.MapType:
				elt = typ.Value
			}
			if star, ok := elt.(*ast.StarExpr); ok {
				elt = star.X // []*T{{}} means []*T{&T{}}
			}
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if inner, ok := e.(*ast.CompositeLit); ok && inner.Type == nil {
					elided[inner] = elt
				}
			}
		}
		return true
	})
	return out
}

// catalogWrites are the storage.Catalog methods that change it.
var catalogWrites = []string{"CreateTable", "DropTable", "InstallFunction", "DropFunction", "SetNextID"}

// sourceFset and sourceImporter are shared by every type check, so each
// imported package is type-checked from source once per test binary.
var (
	sourceFset     = token.NewFileSet()
	sourceImporter = sync.OnceValue(func() types.Importer { return importer.ForCompiler(sourceFset, "source", nil) })
)

// blockingCalls are the calls lockblock reports under a held mutex, by
// package path (less "repro/internal/"), receiver type and function name.
var blockingCalls = []string{
	"udfrt.Callable.Call", "net.Conn.Read", "net.Conn.Write", "wire.Client.send", "wire.Client.recv",
	"wire.frameWriter.writeFrame", "wire.frameWriter.writeResultStream",
	"wire.WriteFrame", "wire.ReadFrame", "wire.WriteResultStream",
}

// lockblockFindings type-checks files, parsed into sourceFset, as the
// package path and reports each blocking operation in a window where the
// same function holds a mutex. The walk is per function and syntactic: a
// branch gets a copy of the held set, a deferred call and a goroutine hold
// nothing, and a function literal is a function of its own.
func lockblockFindings(t *testing.T, path string, files []*ast.File) []string {
	t.Helper()
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{Importer: sourceImporter()}).Check(path, sourceFset, files, info); err != nil {
		t.Fatalf("type-check %s: %v", path, err)
	}
	line := func(pos token.Pos) string {
		p := sourceFset.Position(pos)
		return fmt.Sprintf("%s:%d", p.Filename, p.Line)
	}
	suppressed := map[string]bool{} // lines that carry //lockblock:ok <reason>
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if reason, ok := strings.CutPrefix(c.Text, "//lockblock:ok "); ok && strings.TrimSpace(reason) != "" {
					suppressed[line(c.Slash)] = true
				}
			}
		}
	}
	var out []string
	report := func(n ast.Node, held map[string]bool, what string) {
		if len(held) > 0 && !suppressed[line(n.Pos())] {
			out = append(out, fmt.Sprintf("%s: %s while holding %s can wedge the connection; release the lock first",
				sourceFset.Position(n.Pos()), what, strings.Join(slices.Sorted(maps.Keys(held)), ", ")))
		}
	}
	// named is "path.Name" of the named type t is or points to.
	named := func(t types.Type) string { return strings.TrimPrefix(types.TypeString(t, nil), "*") }
	// walk visits root in source order with the set of mutexes held; a
	// nested block or case body gets a copy of it.
	var walk func(root ast.Node, held map[string]bool)
	walk = func(root ast.Node, held map[string]bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
				return false // runs later, or elsewhere, holding nothing of ours
			case *ast.BlockStmt, *ast.CaseClause:
				if n != root {
					walk(n, maps.Clone(held))
					return false
				}
			case *ast.CommClause:
				body := maps.Clone(held)
				for _, s := range n.Body {
					walk(s, body)
				}
				return false // a select's own case is not a blocking receive
			case *ast.SendStmt:
				report(n, held, "channel send")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					report(n, held, "channel receive")
				}
			case *ast.RangeStmt:
				if _, ok := info.Types[n.X].Type.Underlying().(*types.Chan); ok {
					report(n, held, "channel receive (range)")
				}
			case *ast.SelectStmt:
				if !slices.ContainsFunc(n.Body.List, func(cc ast.Stmt) bool { return cc.(*ast.CommClause).Comm == nil }) {
					report(n, held, "blocking select")
				}
			case *ast.CallExpr:
				id, _ := ast.Unparen(n.Fun).(*ast.Ident)
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					id = sel.Sel
					if mu := named(info.Types[sel.X].Type); mu == "sync.Mutex" || mu == "sync.RWMutex" {
						switch sel.Sel.Name {
						case "Lock", "RLock":
							held[types.ExprString(sel.X)] = true
						case "Unlock", "RUnlock":
							delete(held, types.ExprString(sel.X))
						}
					}
				}
				fn, _ := info.Uses[id].(*types.Func)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				key := fn.Pkg().Path()
				if recv := fn.Signature().Recv(); recv != nil {
					key = named(recv.Type())
				}
				if key = strings.TrimPrefix(key+"."+fn.Name(), "repro/internal/"); slices.Contains(blockingCalls, key) {
					report(n, held, key)
				}
			}
			return true
		})
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
				walk(fd.Body, map[string]bool{})
			} else if lit, ok := n.(*ast.FuncLit); ok {
				walk(lit.Body, map[string]bool{})
			}
			return true
		})
	}
	return out
}

// TestLintRulesCatchFixtures: each rule reports every violation of its
// fixtures, on the line a "// want: <text>" comment names, and nothing
// else, so a rule that passes everything fails here. A fixture's subtest
// is named after it and then the module directory it is checked as. The
// lockblock fixture is type-checked as package repro/internal/wire.
func TestLintRulesCatchFixtures(t *testing.T) {
	for _, fx := range []struct{ name, dir, src string }{
		{"ctxflow", "internal/wire", `package wire
import "context"
func handleQuery(q string)                         { ctx := context.Background(); runQuery(ctx, q) } // want: context.Background() in a request path
func handleLazy(q string)                          { runQuery(context.TODO(), q) } // want: context.TODO() in a request path
func handleThreaded(ctx context.Context, q string) { runQuery(ctx, q) }
func runQuery(ctx context.Context, q string)       {}`},
		{"outside every scope", "cmd/devudf", `package main
import ("context"; "fmt")
func main() { _, _ = context.Background(), fmt.Errorf("usage: %s", "x") }`},
		{"fmt.Errorf", "internal/obs", `package a
import ("errors"; "fmt"; "repro/internal/core")
var errBoom = errors.New("boom")
func badVerbV() error           { return fmt.Errorf("open config: %v", errBoom) } // want: fmt.Errorf outside package main
func badVerbS(n string) error   { return fmt.Errorf("load %s: %s", n, errBoom) } // want: fmt.Errorf outside package main
func wrap() error               { return fmt.Errorf("open config: %w", errBoom) } // want: fmt.Errorf outside package main
func afterEscape(n int) error   { return fmt.Errorf("100%% failure after %d rows: %v", n, errBoom) } // want: fmt.Errorf outside package main
func dynamic(f string) error    { return fmt.Errorf(f, errBoom) } // want: fmt.Errorf outside package main
func deliberate() error         { return fmt.Errorf("redacted: %v", errBoom) } //errwrap:ok a directive suppresses nothing // want: fmt.Errorf outside package main
func coreErrorf(a string) error { return core.Errorf(core.KindIO, "connect %s: %v", a, errBoom) }`},
		{"core.Error assertion", "internal/udfrt/pyrt", `package pyrt
import (ce "repro/internal/core"; "errors")
func errText(err error) string     { if e, ok := err.(*ce.Error); ok { return e.Msg }; return err.Error() } // want: type assertion to *core.Error
func asserted(err error) *ce.Error { return err.(*ce.Error) } // want: type assertion to *core.Error
func text(err error) string        { return ce.Message(err) }
func kind(err error) ce.ErrorKind  { var e *ce.Error; _ = errors.As(err, &e); return ce.KindOf(err) }
func other(v any) error            { err, _ := v.(error); return err }`},
		{"column literal", "devudf", `package b
import "repro/internal/storage"
func value() storage.Column              { return storage.Column{Name: "x"} } // want: storage.Column composite literal
func pointer() *storage.Column           { return &storage.Column{Name: "y"} } // want: storage.Column composite literal
func elided() []*storage.Column          { return []*storage.Column{{}} } // want: storage.Column composite literal
func mapped() map[int][]storage.Column   { return map[int][]storage.Column{1: {{}}} } // want: storage.Column composite literal
func deliberate() storage.Column         { return storage.Column{Name: "seed"} } //colinvariant:ok a directive suppresses nothing // want: storage.Column composite literal
func constructor() *storage.Column       { return storage.NewColumn("z", storage.TInt) }
func otherLiterals() []storage.ColumnDef { return []storage.ColumnDef{{Name: "c"}} }`},
		{"the kernels", "internal/engine/vec", `package vec
import (stdctx "context"; "repro/internal/storage")
func fresh() stdctx.Context               { return stdctx.Background() } // want: context.Background() in a request path
func kernel(nulls []bool) *storage.Column { return &storage.Column{Typ: storage.TInt, Nulls: nulls} }`},
		{"registration", "internal/mllib", `package mllib
import ("repro/internal/script"; _ "embed")
var table = map[string]int{}
func init() {
	script.RegisterUnpickler(pickleClass, func(data []byte) (script.Value, error) { return unpickle(data) }) // want: func init calls script.RegisterUnpickler
	script.RegisterModule("mllib", buildModule) // want: func init calls script.RegisterModule
	for i, name := range []string{"sklearn", "sklearn.ensemble"} { table[name] = i }
}
func (c *Classifier) init() { script.RegisterModule("method", nil) }
func register() { script.RegisterModule("later", nil) }`},
		{"blank import", "internal/engine", `package engine
import (
	"repro/internal/udfrt"
	_ "repro/internal/mllib" // want: blank import of repro/internal/mllib
	_ "net/http/pprof"
)
func init() { udfrt := struct{ Register func() }{}; udfrt.Register() }`},
		{"catalog writer", "internal/dump", `package dump
import "repro/internal/sqlparse"
func restore(cat *storage.Catalog, f *storage.FuncDef) error { return cat.InstallFunction(f, false) } // want: InstallFunction call outside internal/storage and internal/engine
func isCreate(st sqlparse.Statement) bool                  { _, ok := st.(*sqlparse.CreateTable); return ok }`},
		{"package-level mutex", "internal/udfrt/gort", `package gort
import "sync"
var (
	mu    sync.RWMutex // want: package-level mutex mu
	funcs = map[string]any{}
)
var plain sync.Mutex // want: package-level mutex plain
var literal = sync.Mutex{} // want: package-level mutex literal
var group, once = sync.WaitGroup{}, sync.Once{}
type table struct { mu sync.RWMutex; funcs map[string]any }
func local() { var mu sync.Mutex; mu.Lock(); mu.Unlock() }`},
		{"lockblock", "internal/wire", `package wire
import ("net"; "sync"; "repro/internal/udfrt")
func WriteFrame(c net.Conn, t byte, payload []byte) error       { return nil }
type frameWriter struct{}
func (fw *frameWriter) writeFrame(t byte, payload []byte) error { return nil }
type Client struct{ mu sync.Mutex }
func (c *Client) send(t byte, payload []byte) error             { return nil }
type session struct { mu sync.Mutex; ch chan int }
func (s *session) badSend(v int) { s.mu.Lock(); s.ch <- v; s.mu.Unlock() } // want: channel send while holding s.mu
func (s *session) badRecv() int { s.mu.Lock(); defer s.mu.Unlock(); return <-s.ch } // want: channel receive while holding s.mu
func (s *session) badRange()    { s.mu.Lock(); defer s.mu.Unlock(); for range s.ch {} } // want: channel receive (range) while holding s.mu
func (s *session) badSelect()   { s.mu.Lock(); defer s.mu.Unlock(); select { case <-s.ch: } } // want: blocking select while holding s.mu
func (s *session) goodSelect()  { s.mu.Lock(); defer s.mu.Unlock(); select { case <-s.ch: default: } }
func (s *session) goodSend(v int) { s.mu.Lock(); s.mu.Unlock(); s.ch <- v }
func (s *session) badConnWrite(c net.Conn, b []byte) { s.mu.Lock(); defer s.mu.Unlock(); c.Write(b) } // want: net.Conn.Write while holding s.mu
func (s *session) badFrame(c net.Conn)               { s.mu.Lock(); defer s.mu.Unlock(); WriteFrame(c, 1, nil) } // want: wire.WriteFrame while holding s.mu
func (s *session) badConnFrame(fw *frameWriter)      { s.mu.Lock(); defer s.mu.Unlock(); fw.writeFrame(1, nil) } // want: wire.frameWriter.writeFrame while holding s.mu
func (s *session) badUDF(fn udfrt.Callable)          { s.mu.Lock(); defer s.mu.Unlock(); fn.Call(nil, nil) } // want: udfrt.Callable.Call while holding s.mu
func (c *Client) badRoundTrip() error                { c.mu.Lock(); defer c.mu.Unlock(); return c.send(1, nil) } // want: wire.Client.send while holding c.mu
func (s *session) serialized(c net.Conn, b []byte)   { s.mu.Lock(); defer s.mu.Unlock(); c.Write(b) } //lockblock:ok the mutex serializes frame writes
func (s *session) directiveAbove(c net.Conn, b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lockblock:ok only the operation's own line counts
	c.Write(b) // want: net.Conn.Write while holding s.mu
	//lockblock:ok
	c.Write(b) // want: net.Conn.Write while holding s.mu
}
type guarded struct { mu sync.RWMutex; ch chan int }
func (g *guarded) branchScoped(flag bool, v int) {
	if flag {
		g.mu.RLock()
		g.ch <- 1 // want: channel send while holding g.mu
		switch { case v > 0: g.ch <- v } // want: channel send while holding g.mu
		g.mu.RUnlock()
	}
	g.ch <- 2
}
func (g *guarded) branchLocal(flag bool) { if flag { g.mu.Lock(); defer g.mu.Unlock() }; g.ch <- 2 }
func (s *session) spawn() { s.mu.Lock(); defer s.mu.Unlock(); go func() { s.ch <- 1 }(); f := func() { s.ch <- 2 }; _ = f }`},
	} {
		t.Run(fx.name, func(t *testing.T) {
			t.Run(fx.dir, func(t *testing.T) {
				f, err := parser.ParseFile(sourceFset, fx.dir+"/"+strings.ReplaceAll(fx.name, " ", "_")+".go", fx.src, parser.ParseComments)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				if fx.name == "lockblock" {
					got = lockblockFindings(t, "repro/"+fx.dir, []*ast.File{f})
				} else {
					got = syntaxFindings(fx.dir, f)
				}
				for _, cg := range f.Comments {
					for _, c := range cg.List {
						p := sourceFset.Position(c.Slash)
						at := fmt.Sprintf("%s:%d:", p.Filename, p.Line)
						if _, want, ok := strings.Cut(c.Text, "// want: "); ok {
							i := slices.IndexFunc(got, func(g string) bool { return strings.HasPrefix(g, at) && strings.Contains(g, want) })
							if i < 0 {
								t.Fatalf("%s no finding %q among %q", at, want, got)
							}
							got = slices.Delete(got, i, i+1)
						}
					}
				}
				for _, g := range got {
					t.Errorf("unexpected finding: %s", g)
				}
			})
		})
	}
}

// Package goleak defines an analyzer requiring every spawned goroutine to
// be provably bounded: its body (or, for `go f()` spawns, the spawned
// function) must reach a termination signal — a receive from a channel
// (ctx.Done, a done channel, a work queue), a select with a receive case,
// a range over a channel, or a sync.WaitGroup.Done call.
//
// Whether a named spawn target is bounded is resolved through a
// package-local call-graph fixpoint (a function bounded by calling a
// bounded helper counts) and, across packages, through Bounded facts
// exported for package-level functions. A goroutine whose lifetime is
// bounded externally — by process shutdown, by the test harness — carries
// an explicit claim: //goleak:bounded <reason>.
package goleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the goleak check.
var Analyzer = &analysis.Analyzer{
	Name: "goleak",
	Doc: `require goroutines to be bounded by a ctx/done signal or WaitGroup

Every go statement must spawn a body that receives from a channel, selects
on one, ranges over one, or calls WaitGroup.Done — directly or through the
functions it calls (cross-package via Bounded facts). Claim an external
bound with //goleak:bounded <reason>.`,
	Run:       run,
	FactTypes: []analysis.Fact{(*Bounded)(nil)},
}

// Bounded is a fact on a function: goroutines running it terminate on a
// recognized signal, so `go pkg.F()` is safe.
type Bounded struct{}

// AFact marks Bounded as a fact type.
func (*Bounded) AFact() {}

func run(pass *analysis.Pass) error {
	b := newBoundedness(pass)

	// Export facts for package-level functions so other packages can spawn
	// them.
	for fn, decl := range b.decls {
		if b.bounded(decl.Body) {
			pass.ExportObjectFact(fn, &Bounded{})
		}
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok || pass.InTestFile(n.Pos()) {
				return true
			}
			b.checkSpawn(gs)
			return true
		})
	}
	return nil
}

// boundedness computes which function bodies reach a termination signal,
// memoized over the package's declarations.
type boundedness struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	memo  map[*ast.BlockStmt]bool
	stack map[*ast.BlockStmt]bool // cycle guard for mutual recursion
}

func newBoundedness(pass *analysis.Pass) *boundedness {
	b := &boundedness{
		pass:  pass,
		decls: map[*types.Func]*ast.FuncDecl{},
		memo:  map[*ast.BlockStmt]bool{},
		stack: map[*ast.BlockStmt]bool{},
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				b.decls[fn] = fd
			}
		}
	}
	return b
}

func (b *boundedness) checkSpawn(gs *ast.GoStmt) {
	if b.pass.HasDirective(gs, "goleak", "bounded") {
		return
	}
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		if b.bounded(fun.Body) {
			return
		}
		b.pass.Reportf(gs.Pos(), "goroutine is not provably bounded: no channel receive, select, or WaitGroup.Done reachable from the spawn (annotate //goleak:bounded <reason> if bounded externally)")
	default:
		fn := b.pass.CalleeFunc(gs.Call)
		if fn == nil {
			b.pass.Reportf(gs.Pos(), "goroutine spawns through a function value; boundedness cannot be checked (annotate //goleak:bounded <reason>)")
			return
		}
		if decl, ok := b.decls[fn]; ok {
			if b.bounded(decl.Body) {
				return
			}
		} else {
			var fact Bounded
			if b.pass.ImportObjectFact(fn, &fact) {
				return
			}
		}
		b.pass.Reportf(gs.Pos(), "goroutine running %s is not provably bounded: it never receives from a channel, selects, or calls WaitGroup.Done (annotate //goleak:bounded <reason> if bounded externally)", fn.Name())
	}
}

// bounded reports whether body reaches a termination signal, following
// calls to same-package functions and Bounded facts from other packages.
func (b *boundedness) bounded(body *ast.BlockStmt) bool {
	if v, ok := b.memo[body]; ok {
		return v
	}
	if b.stack[body] {
		return false // recursion cycle: no signal found on this path
	}
	b.stack[body] = true
	defer delete(b.stack, body)

	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			for _, cs := range n.Body.List {
				cc, ok := cs.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				if isReceive(cc.Comm) {
					found = true
				}
			}
		case *ast.RangeStmt:
			if tv, ok := b.pass.TypesInfo.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if b.callBounds(n) {
				found = true
			}
		}
		return !found
	})
	b.memo[body] = found
	return found
}

// callBounds reports whether one call is itself a termination signal
// (WaitGroup.Done) or transitively bounded.
func (b *boundedness) callBounds(call *ast.CallExpr) bool {
	fn := b.pass.CalleeFunc(call)
	if fn == nil {
		return false
	}
	if fn.Name() == "Done" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
			analysis.NamedFrom(sig.Recv().Type(), "sync", "WaitGroup") {
			return true
		}
	}
	if decl, ok := b.decls[fn]; ok {
		return b.bounded(decl.Body)
	}
	var fact Bounded
	return b.pass.ImportObjectFact(fn, &fact)
}

// isReceive reports whether a select comm clause statement receives.
func isReceive(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		u, ok := ast.Unparen(s.X).(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			if u, ok := ast.Unparen(r).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return true
			}
		}
	}
	return false
}

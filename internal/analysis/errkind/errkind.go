// Package errkind defines an analyzer protecting the retryability
// classification of errors crossing the engine/wire boundary.
//
// core.KindOf resolves an error's kind from the outermost core.Error in
// its chain, and the wire client's retry loop and the engine's
// cancellation paths key off exactly two kinds: KindOverload (safe to
// retry — the server shed the request before executing it) and
// KindCancelled (the statement was aborted). Wrapping such an error with
// core.Wrapf under a different literal kind silently re-classifies it:
// the retry loop stops retrying sheds, IsCancelled stops recognizing
// aborts, and the client sees a lie.
//
// The analyzer tracks, flow-sensitively over each function's CFG, which
// local error variables may currently hold a cancellation-critical error —
// seeded by calls to functions carrying a Cancellable fact (exported
// bottom-up: constructors of KindCancelled/KindOverload errors and
// functions propagating them), by context.Context.Err, and by calls that
// hand a context to a package errkind never analysed (the standard
// library: net.Dialer.DialContext returns the context's error) — and
// reports any core.Wrapf that re-kinds one under a different literal
// kind. Deliberate reclassification is annotated //errkind:ok <reason>.
package errkind

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// Analyzer is the errkind check.
var Analyzer = &analysis.Analyzer{
	Name: "errkind",
	Doc: `forbid re-kinding cancellation/overload errors with core.Wrapf

An error that may carry KindCancelled or KindOverload (tracked through
Cancellable facts and per-function dataflow) must keep its kind when
wrapped: use the same kind, or core.KindOf(err). Wrapping it under another
literal kind hides it from core.Retryable and core.IsCancelled. Annotate
deliberate reclassification with //errkind:ok <reason>.`,
	Run:       run,
	FactTypes: []analysis.Fact{(*Cancellable)(nil), (*Analyzed)(nil)},
}

// Cancellable is a fact on a function: it may return an error whose
// outermost kind is KindCancelled or KindOverload.
type Cancellable struct{}

// AFact marks Cancellable as a fact type.
func (*Cancellable) AFact() {}

// Analyzed is a fact on a package: errkind ran over it, so one of its
// functions lacking a Cancellable fact does not return
// cancellation-critical errors. Without it the absence means "unknown":
// both drivers analyse the module's packages only, never the standard
// library.
type Analyzed struct{}

// AFact marks Analyzed as a fact type.
func (*Analyzed) AFact() {}

// scopes lists the package path segments whose Wrapf calls are checked.
var scopes = []string{"engine", "wire", "devudf", "udfrt"}

// preservingKinds are the literal kinds a cancellable error may be
// re-wrapped with without losing its classification.
var preservingKinds = map[string]bool{"KindCancelled": true, "KindOverload": true}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, local: map[*types.Func]*ast.FuncDecl{}, cancellable: map[*types.Func]bool{}}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					c.local[fn] = fd
				}
			}
		}
	}

	// Bottom-up fixpoint: a function is cancellable if it can return a
	// cancellation-critical error, directly or through a cancellable call.
	for changed := true; changed; {
		changed = false
		for fn, fd := range c.local {
			if c.cancellable[fn] {
				continue
			}
			if c.returnsCancellable(fn, fd) {
				c.cancellable[fn] = true
				changed = true
			}
		}
	}
	for fn := range c.cancellable {
		pass.ExportObjectFact(fn, &Cancellable{})
	}
	pass.ExportPackageFact(&Analyzed{})

	inScope := false
	for _, s := range scopes {
		if analysis.PathHasSegments(pass.Pkg.Path(), s) {
			inScope = true
		}
	}
	if !inScope {
		return nil
	}

	pass.ForEachFunc(func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
		var fun ast.Node = decl
		if lit != nil {
			fun = lit
		}
		c.checkFunc(fun, body)
	})
	return nil
}

type checker struct {
	pass        *analysis.Pass
	local       map[*types.Func]*ast.FuncDecl
	cancellable map[*types.Func]bool
}

// isCancellableFn reports whether calling fn may yield a
// cancellation-critical error.
func (c *checker) isCancellableFn(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if c.cancellable[fn] {
		return true
	}
	if fn.Name() == "Err" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
			analysis.NamedFrom(sig.Recv().Type(), "context", "Context") {
			return true
		}
	}
	var fact Cancellable
	if c.pass.ImportObjectFact(fn, &fact) {
		return true
	}
	// A package errkind never saw has no facts either way. Assume the
	// convention of the standard library: a function handed a context and
	// returning an error returns the context's error once it is done.
	var seen Analyzed
	if fn.Pkg() == nil || fn.Pkg() == c.pass.Pkg || c.pass.ImportPackageFact(fn.Pkg(), &seen) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	takesCtx, returnsErr := false, false
	for i := 0; i < sig.Params().Len(); i++ {
		takesCtx = takesCtx || analysis.NamedFrom(sig.Params().At(i).Type(), "context", "Context")
	}
	for i := 0; i < sig.Results().Len(); i++ {
		returnsErr = returnsErr || analysis.IsErrorType(sig.Results().At(i).Type())
	}
	return takesCtx && returnsErr
}

// hasCancellableCall reports whether n's subtree contains a call to a
// cancellable function or a cancellable core constructor.
func (c *checker) hasCancellableCall(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kind, isCtor := c.coreCtorKind(call); isCtor {
			if preservingKinds[kind] {
				found = true
			}
			return true
		}
		if c.isCancellableFn(c.pass.CalleeFunc(call)) {
			found = true
		}
		return !found
	})
	return found
}

// coreCtorKind recognizes core.Errorf / core.Wrapf calls and returns the
// literal kind name of the first argument ("" when the kind is computed,
// e.g. core.KindOf(err) — which is always preserving).
func (c *checker) coreCtorKind(call *ast.CallExpr) (kind string, ok bool) {
	fn := c.pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil || !analysis.PathHasSegments(fn.Pkg().Path(), "core") {
		return "", false
	}
	if fn.Name() != "Errorf" && fn.Name() != "Wrapf" {
		return "", false
	}
	if len(call.Args) == 0 {
		return "", false
	}
	if sel, okSel := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); okSel {
		if obj := c.pass.TypesInfo.Uses[sel.Sel]; obj != nil {
			if _, isConst := obj.(*types.Const); isConst {
				return sel.Sel.Name, true
			}
		}
	}
	if id, okID := ast.Unparen(call.Args[0]).(*ast.Ident); okID {
		if _, isConst := c.pass.TypesInfo.Uses[id].(*types.Const); isConst {
			return id.Name, true
		}
	}
	return "", true
}

// returnsCancellable reports whether fd may return a cancellation-critical
// error: it has an error result and either constructs one, returns the
// result of a cancellable call, or returns a variable assigned from one.
func (c *checker) returnsCancellable(fn *types.Func, fd *ast.FuncDecl) bool {
	sig := fn.Type().(*types.Signature)
	hasErr := false
	for i := 0; i < sig.Results().Len(); i++ {
		if analysis.IsErrorType(sig.Results().At(i).Type()) {
			hasErr = true
		}
	}
	if !hasErr {
		return false
	}

	// Variables assigned (anywhere) from a cancellable call.
	tainted := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		rhsCancellable := false
		for _, r := range as.Rhs {
			if c.hasCancellableCall(r) {
				rhsCancellable = true
			}
		}
		if !rhsCancellable {
			return true
		}
		for _, l := range as.Lhs {
			if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
				if obj := objOf(c.pass, id); obj != nil && analysis.IsErrorType(obj.Type()) {
					tainted[obj] = true
				}
			}
		}
		return true
	})

	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if c.hasCancellableCall(res) {
				found = true
				return false
			}
			if id, ok := ast.Unparen(res).(*ast.Ident); ok {
				if obj := objOf(c.pass, id); obj != nil && tainted[obj] {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

func objOf(pass *analysis.Pass, id *ast.Ident) types.Object {
	if o := pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return pass.TypesInfo.Defs[id]
}

// ---- flow-sensitive check of one function ----

// state is a bitmask over the function's tracked error variables: bit i
// set means variable i may currently hold a cancellation-critical error.
type state uint64

const maxTracked = 64

func (c *checker) checkFunc(fun ast.Node, body *ast.BlockStmt) {
	// Cheap pre-filter: a function with no core.Wrapf call needs no CFG.
	hasWrapf := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := c.pass.CalleeFunc(call); fn != nil && fn.Name() == "Wrapf" &&
				fn.Pkg() != nil && analysis.PathHasSegments(fn.Pkg().Path(), "core") {
				hasWrapf = true
			}
		}
		return !hasWrapf
	})
	if !hasWrapf {
		return
	}

	// Index the local error-typed variables (up to 64; the rest untracked).
	idx := map[types.Object]int{}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.pass.TypesInfo.Defs[id]
		if obj == nil {
			return true
		}
		if v, ok := obj.(*types.Var); ok && analysis.IsErrorType(v.Type()) && len(idx) < maxTracked {
			if _, seen := idx[obj]; !seen {
				idx[obj] = len(idx)
			}
		}
		return true
	})

	g := cfg.New(fun, body, c.pass.CalleeFunc)
	flow := cfg.Flow[state]{
		Init:     func() state { return 0 },
		Bottom:   func() state { return 0 },
		Join:     func(a, b state) state { return a | b },
		Equal:    func(a, b state) bool { return a == b },
		Transfer: func(b *cfg.Block, in state) state { return c.transferBlock(b, in, idx) },
	}
	res := cfg.Solve(g, flow)

	// Replay reachable blocks from their fixed entry states and report
	// non-preserving Wrapf calls over may-cancellable operands.
	reach := g.Reachable()
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		st := res.In[b]
		for _, n := range b.Nodes {
			c.checkNode(n, st, idx)
			st = c.transferNode(n, st, idx)
		}
	}
}

func (c *checker) transferBlock(b *cfg.Block, in state, idx map[types.Object]int) state {
	st := in
	for _, n := range b.Nodes {
		st = c.transferNode(n, st, idx)
	}
	return st
}

// transferNode updates the tracked-variable states for one CFG node.
// Assignments inside nested function literals still apply: the literal
// may run on this path and the state is a may-analysis.
func (c *checker) transferNode(n ast.Node, st state, idx map[types.Object]int) state {
	cfg.Inspect(n, func(m ast.Node) bool {
		as, ok := m.(*ast.AssignStmt)
		if !ok {
			return true
		}
		cancellable := false
		for _, r := range as.Rhs {
			if c.hasCancellableCall(r) || c.isMarkedVar(r, st, idx) {
				cancellable = true
			}
		}
		for _, l := range as.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok {
				continue
			}
			obj := objOf(c.pass, id)
			if obj == nil {
				continue
			}
			i, tracked := idx[obj]
			if !tracked {
				continue
			}
			if cancellable {
				st |= 1 << i
			} else {
				st &^= 1 << i
			}
		}
		return true
	})
	return st
}

// isMarkedVar reports whether expr is a tracked variable whose bit is set.
func (c *checker) isMarkedVar(expr ast.Expr, st state, idx map[types.Object]int) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return false
	}
	obj := objOf(c.pass, id)
	if obj == nil {
		return false
	}
	i, tracked := idx[obj]
	return tracked && st&(1<<i) != 0
}

// checkNode reports re-kinding Wrapf calls in one CFG node under the
// current state.
func (c *checker) checkNode(n ast.Node, st state, idx map[types.Object]int) {
	cfg.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false // literals are checked as functions in their own right
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := c.pass.CalleeFunc(call)
		if fn == nil || fn.Name() != "Wrapf" || fn.Pkg() == nil ||
			!analysis.PathHasSegments(fn.Pkg().Path(), "core") || len(call.Args) < 2 {
			return true
		}
		kind, ok := c.coreCtorKind(call)
		if !ok || kind == "" || preservingKinds[kind] {
			return true
		}
		cause := call.Args[1]
		cancellable := c.isMarkedVar(cause, st, idx) || c.hasCancellableCall(cause)
		if !cancellable {
			return true
		}
		if c.suppressed(call) {
			return true
		}
		c.pass.Reportf(call.Pos(),
			"core.Wrapf re-kinds a possibly cancellation-critical error as %s, hiding KindCancelled/KindOverload from core.KindOf and the retry path; wrap with core.KindOf(err) or the original kind (annotate //errkind:ok <reason> if the reclassification is deliberate)", kind)
		return true
	})
}

// suppressed reports a reasoned //errkind:ok directive on the call's
// statement line or enclosing function.
func (c *checker) suppressed(n ast.Node) bool {
	for _, d := range c.pass.Attached(n, "errkind") {
		if d.Verb == "ok" && d.Args != "" {
			return true
		}
	}
	for _, d := range c.pass.FuncDirectives(n.Pos(), "errkind") {
		if d.Verb == "ok" && d.Args != "" {
			return true
		}
	}
	return false
}

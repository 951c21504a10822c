// Package interruptloop defines an analyzer requiring potentially long
// loops in the engine's execution paths to reach an interrupt checkpoint.
//
// The paper's serving model admits queries whose result sets and kernel
// inputs are sized by the client; a loop that processes them without ever
// consulting the connection's interrupt state (or a morsel pool's Stop
// hook, or a context) turns client cancellation and admission-control
// revocation into dead letters. The analyzer flags, inside
// interrupt-capable functions of the engine packages:
//
//   - unconditioned `for {}` loops and loops ranging over a channel;
//   - loops whose body makes a dynamic (interface or function-value) call
//     or calls a function carrying a Long fact, i.e. per-iteration work of
//     unbounded cost;
//   - any loop in a //vec:hot kernel that takes a morsel pool parameter
//     but runs outside the pool's Run/RunIdx/RunErr drivers (which
//     checkpoint between morsels).
//
// A loop already containing a checkpoint — an interruptErr/stopped/
// checkBudgetRows call, a Stop-hook call, ctx.Err, a channel receive or
// select, a morsel-driver call, or a call to a function with a
// Checkpoints fact — is accepted. Loops bounded by construction are
// exempted with //interruptloop:exempt <reason>.
package interruptloop

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the interruptloop check.
var Analyzer = &analysis.Analyzer{
	Name: "interruptloop",
	Doc: `require long-running engine loops to reach an interrupt checkpoint

Inside interrupt-capable functions (methods on the engine Conn, functions
taking a morsel Pol or a context.Context) of the engine and devudf
packages, unbounded loops and loops doing dynamic-call work must contain a
cancellation checkpoint. Exempt provably short loops with
//interruptloop:exempt <reason>.`,
	Run:       run,
	FactTypes: []analysis.Fact{(*Checkpoints)(nil), (*Long)(nil)},
}

// Checkpoints is a fact on a function: every call to it observes the
// interrupt state, so a loop calling it is checkpointed.
type Checkpoints struct{}

// AFact marks Checkpoints as a fact type.
func (*Checkpoints) AFact() {}

// Long is a fact on a function: one call may run work of unbounded cost
// (it loops over dynamic calls without checkpointing), so callers looping
// over it must checkpoint between calls.
type Long struct{}

// AFact marks Long as a fact type.
func (*Long) AFact() {}

// scopes lists the package path segments whose loops are checked. Other
// packages still contribute facts.
var scopes = []string{"engine", "devudf"}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, local: map[*types.Func]*ast.FuncDecl{}}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					c.local[fn] = fd
				}
			}
		}
	}

	// Fixpoint over the package's functions: a function checkpoints if its
	// body contains a checkpoint op, possibly a call to another local
	// checkpointing function.
	c.checkpoints = map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for fn, fd := range c.local {
			if c.checkpoints[fn] {
				continue
			}
			if c.containsCheckpoint(fd.Body) {
				c.checkpoints[fn] = true
				changed = true
			}
		}
	}
	for fn := range c.checkpoints {
		pass.ExportObjectFact(fn, &Checkpoints{})
	}
	// Long facts are computed after checkpoint facts so a loop calling a
	// local checkpointing helper is not itself long.
	for fn, fd := range c.local {
		if c.checkpoints[fn] {
			continue
		}
		if c.hasUncheckedDynamicLoop(fd.Body) {
			pass.ExportObjectFact(fn, &Long{})
			c.long = append(c.long, fn)
		}
	}

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
		if lit != nil {
			return // literals are visited as part of their enclosing function
		}
		c.checkFunc(decl)
	})
	return nil
}

type checker struct {
	pass        *analysis.Pass
	local       map[*types.Func]*ast.FuncDecl
	checkpoints map[*types.Func]bool
	long        []*types.Func
	driverLits  []*ast.FuncLit // literals passed to Pol Run drivers, per checked function
}

// capable reports whether fd can observe an interrupt at all: a method on
// the engine Conn, or a function taking a morsel Pol, a context.Context,
// or an engine Interrupt. Functions without any of these have nothing to
// poll, so their loops are a plumbing problem, not a checkpoint problem.
func (c *checker) capable(fd *ast.FuncDecl) bool {
	capableType := func(t types.Type) bool {
		return analysis.NamedFrom(t, "engine", "Conn") ||
			analysis.NamedFrom(t, "vec", "Pol") ||
			analysis.NamedFrom(t, "context", "Context") ||
			analysis.NamedFrom(t, "engine", "Interrupt")
	}
	fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil && capableType(recv.Type()) {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if capableType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// hasPolParam reports whether fd takes a morsel pool parameter.
func (c *checker) hasPolParam(fd *ast.FuncDecl) bool {
	fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if analysis.NamedFrom(sig.Params().At(i).Type(), "vec", "Pol") {
			return true
		}
	}
	return false
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	if !c.capable(fd) {
		return
	}
	hot := false
	for _, d := range c.pass.FuncDirectives(fd.Pos(), "vec") {
		if d.Verb == "hot" {
			hot = true
		}
	}
	hotPol := hot && c.hasPolParam(fd)

	c.driverLits = c.driverLits[:0]
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && c.isMorselDriverCall(call) {
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					c.driverLits = append(c.driverLits, lit)
				}
			}
		}
		return true
	})

	// Walk loops outermost-first; a loop that checkpoints clears its whole
	// subtree (the checkpoint is reached on every iteration of any nesting).
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			body = l.Body
		case *ast.RangeStmt:
			body = l.Body
		case *ast.FuncLit:
			// A literal passed to a morsel driver runs checkpointed between
			// morsels; other literals are checked in their own right only
			// for the unbounded-shape triggers below, via the same walk.
			return true
		default:
			return true
		}
		if c.containsCheckpoint(body) {
			return false
		}
		if c.pass.HasDirective(n, "interruptloop", "exempt") {
			return false
		}
		if msg := c.trigger(n, body, hotPol); msg != "" {
			c.pass.Reportf(n.Pos(), "%s (add an interrupt checkpoint or annotate //interruptloop:exempt <reason>)", msg)
			return false
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
}

// trigger classifies a non-checkpointing loop; an empty string means the
// loop is accepted.
func (c *checker) trigger(loop ast.Node, body *ast.BlockStmt, hotPol bool) string {
	switch l := loop.(type) {
	case *ast.ForStmt:
		if l.Cond == nil {
			return "unconditioned loop never reaches an interrupt checkpoint"
		}
	case *ast.RangeStmt:
		if tv, ok := c.pass.TypesInfo.Types[l.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return "loop ranges over a channel without an interrupt checkpoint"
			}
		}
	}
	if hotPol && !c.insideMorselDriver(loop) {
		return "loop in a //vec:hot kernel with a morsel pool runs outside the pool's Run drivers and never reaches an interrupt checkpoint"
	}
	if call := c.unboundedCall(body); call != nil {
		fn := c.pass.CalleeFunc(call)
		if fn != nil {
			return "loop calls " + fn.Name() + ", which may run unbounded work, without an interrupt checkpoint"
		}
		return "loop makes a dynamic call, which may run unbounded work, without an interrupt checkpoint"
	}
	return ""
}

// insideMorselDriver reports whether the loop sits inside a function
// literal passed to a Pol Run/RunIdx/RunErr call — i.e. the morsel driver
// checkpoints around it. driverLits is precomputed per checked function.
func (c *checker) insideMorselDriver(loop ast.Node) bool {
	for _, lit := range c.driverLits {
		if lit.Body.Pos() <= loop.Pos() && loop.End() <= lit.Body.End() {
			return true
		}
	}
	return false
}

// isMorselDriverCall matches p.Run / p.RunIdx / p.RunErr on a vec.Pol.
func (c *checker) isMorselDriverCall(call *ast.CallExpr) bool {
	fn := c.pass.CalleeFunc(call)
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "Run", "RunIdx", "RunErr":
	default:
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && analysis.NamedFrom(sig.Recv().Type(), "vec", "Pol")
}

// containsCheckpoint reports whether body reaches an interrupt checkpoint.
// Function-literal bodies are included: a closure argument runs within the
// iteration, so a checkpoint inside it still fires per iteration (morsel
// driver calls are additionally matched as calls themselves).
func (c *checker) containsCheckpoint(body ast.Node) bool {
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
			found = true
		case *ast.CallExpr:
			if c.isCheckpointCall(n) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isCheckpointCall matches the checkpoint vocabulary: the engine's
// interrupt probes, a Stop hook, ctx.Err, a morsel driver, or a function
// carrying a Checkpoints fact.
func (c *checker) isCheckpointCall(call *ast.CallExpr) bool {
	if c.isMorselDriverCall(call) {
		return true
	}
	// Stop hook: calling a func-typed field or variable named Stop.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Stop" {
		if obj := c.pass.TypesInfo.Uses[sel.Sel]; obj != nil {
			if _, isFunc := obj.(*types.Func); !isFunc {
				return true // field or variable of function type
			}
		}
	}
	fn := c.pass.CalleeFunc(call)
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "interruptErr", "stopped", "checkBudgetRows", "Stop":
		return true
	case "Err":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil &&
			analysis.NamedFrom(sig.Recv().Type(), "context", "Context") {
			return true
		}
	}
	if c.checkpoints[fn] {
		return true
	}
	var fact Checkpoints
	return c.pass.ImportObjectFact(fn, &fact)
}

// unboundedCall returns the first call in body whose per-iteration cost is
// unbounded: a dynamic call (interface method or function value) or a call
// to a function with a Long fact. Checkpoint calls are never unbounded.
func (c *checker) unboundedCall(body ast.Node) *ast.CallExpr {
	var hit *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if hit != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if c.isCheckpointCall(call) {
			return true
		}
		fn := c.pass.CalleeFunc(call)
		if fn == nil {
			// Conversion or builtin calls are cheap; a true dynamic call
			// through a function value is the unbounded case.
			if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
			hit = call
			return false
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if types.IsInterface(sig.Recv().Type()) {
				hit = call
				return false
			}
		}
		if fd, ok := c.local[fn]; ok {
			_ = fd
			for _, lf := range c.long {
				if lf == fn {
					hit = call
					return false
				}
			}
			return true
		}
		var fact Long
		if c.pass.ImportObjectFact(fn, &fact) {
			hit = call
			return false
		}
		return true
	})
	return hit
}

// hasUncheckedDynamicLoop reports whether body contains a loop doing
// dynamic-call work with no checkpoint — the shape that makes a function
// Long for its callers.
func (c *checker) hasUncheckedDynamicLoop(body *ast.BlockStmt) bool {
	long := false
	ast.Inspect(body, func(n ast.Node) bool {
		if long {
			return false
		}
		var lb *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			lb = l.Body
		case *ast.RangeStmt:
			lb = l.Body
		default:
			return true
		}
		if !c.containsCheckpoint(lb) && c.unboundedCall(lb) != nil {
			long = true
			return false
		}
		return true
	})
	return long
}

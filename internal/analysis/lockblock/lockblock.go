// Package lockblock defines an analyzer for the PR 2 wedge class: a
// goroutine that blocks — on a channel, a UDF invocation, or the network —
// while holding a sync.Mutex/RWMutex can deadlock the whole connection
// (the debug-session wedge fixed in PR 2). In internal/debug and
// internal/wire, the analyzer tracks Lock/Unlock pairs within each
// function and reports blocking operations in the held window:
//
//   - channel sends and receives (and selects without a default clause;
//     a select with default is non-blocking and allowed)
//   - Callable.Call — running user UDF code under an engine lock
//   - network IO: net.Conn reads/writes, wire.WriteFrame/ReadFrame/
//     WriteResultStream, the per-connection frameWriter's writeFrame/
//     writeResultStream, and the wire.Client send/recv methods
//
// The analysis is intra-procedural and syntactic: it sees locks taken and
// released in the same function (including defer'd unlocks). Intentional
// sites — e.g. a writer mutex that exists precisely to serialize frame
// writes — carry //lockblock:ok with a reason.
package lockblock

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// scopes are the package path segments the check applies to.
var scopes = []string{"internal/debug", "internal/wire"}

// Analyzer is the lockblock check.
var Analyzer = &analysis.Analyzer{
	Name: "lockblock",
	Doc: `forbid blocking operations while holding a mutex in internal/debug and internal/wire

Channel operations, Callable.Call, and network IO under a held
sync.Mutex/RWMutex are reported. Annotate deliberate serialization points
with //lockblock:ok <reason>.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	inScope := false
	for _, s := range scopes {
		if analysis.PathHasSegments(pass.Pkg.Path(), s) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	// Check every function body — declarations and literals — each with an
	// empty initial lock set (a goroutine or stored closure does not
	// inherit its creator's locks).
	pass.ForEachFunc(func(_ *ast.FuncDecl, _ *ast.FuncLit, body *ast.BlockStmt) {
		checkBody(pass, body)
	})
	return nil
}

// held tracks mutexes locked on the current path, keyed by the printed
// receiver expression ("dc.wmu").
type held map[string]bool

func (h held) clone() held {
	c := make(held, len(h))
	for k := range h {
		c[k] = true
	}
	return c
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	walkStmts(pass, body.List, held{})
}

// walkStmts scans a statement list in order, updating the held set at
// Lock/Unlock calls and checking everything else against it. Branch bodies
// get a copy of the set; changes inside a branch stay in the branch.
func walkStmts(pass *analysis.Pass, stmts []ast.Stmt, h held) {
	for _, stmt := range stmts {
		walkStmt(pass, stmt, h)
	}
}

func walkStmt(pass *analysis.Pass, stmt ast.Stmt, h held) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if key, kind, ok := lockOp(pass, s.X); ok {
			if kind == opLock {
				h[key] = true
			} else {
				delete(h, key)
			}
			return
		}
		scanExpr(pass, s.X, h)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the mutex held to the end of the
		// function; nothing to update. Other deferred calls run after the
		// body — skip their arguments' evaluation context.
		return
	case *ast.SendStmt:
		if len(h) > 0 {
			reportOp(pass, s, h, "channel send")
		}
		scanExpr(pass, s.Value, h)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			scanExpr(pass, e, h)
		}
		for _, e := range s.Lhs {
			scanExpr(pass, e, h)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						scanExpr(pass, v, h)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			scanExpr(pass, e, h)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, h)
		}
		scanExpr(pass, s.Cond, h)
		walkStmts(pass, s.Body.List, h.clone())
		if s.Else != nil {
			walkStmt(pass, s.Else, h.clone())
		}
	case *ast.BlockStmt:
		walkStmts(pass, s.List, h)
	case *ast.ForStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, h)
		}
		if s.Cond != nil {
			scanExpr(pass, s.Cond, h)
		}
		walkStmts(pass, s.Body.List, h.clone())
	case *ast.RangeStmt:
		if len(h) > 0 && isChanType(pass, s.X) {
			reportOp(pass, s, h, "channel receive (range)")
		}
		scanExpr(pass, s.X, h)
		walkStmts(pass, s.Body.List, h.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, h)
		}
		if s.Tag != nil {
			scanExpr(pass, s.Tag, h)
		}
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CaseClause); ok {
				for _, e := range c.List {
					scanExpr(pass, e, h)
				}
				walkStmts(pass, c.Body, h.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CaseClause); ok {
				walkStmts(pass, c.Body, h.clone())
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CommClause); ok && c.Comm == nil {
				hasDefault = true
			}
		}
		if len(h) > 0 && !hasDefault {
			reportOp(pass, s, h, "blocking select")
		}
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CommClause); ok {
				walkStmts(pass, c.Body, h.clone())
			}
		}
	case *ast.LabeledStmt:
		walkStmt(pass, s.Stmt, h)
	case *ast.GoStmt:
		// The spawned goroutine does not hold our locks; its FuncLit body
		// is checked separately with an empty set.
		return
	}
}

// scanExpr reports blocking operations in an expression evaluated while h
// is non-empty. Function literal bodies are skipped — they are checked as
// their own functions.
func scanExpr(pass *analysis.Pass, e ast.Expr, h held) {
	if e == nil || len(h) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				reportOp(pass, n, h, "channel receive")
			}
		case *ast.CallExpr:
			if what, ok := blockingCall(pass, n); ok {
				reportOp(pass, n, h, what)
			}
		}
		return true
	})
}

const (
	opLock = iota
	opUnlock
)

// lockOp recognizes x.Lock()/x.RLock()/x.Unlock()/x.RUnlock() statements on
// sync.Mutex/RWMutex values and returns the receiver key.
func lockOp(pass *analysis.Pass, e ast.Expr) (key string, kind int, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", 0, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = opLock
	case "Unlock", "RUnlock":
		kind = opUnlock
	default:
		return "", 0, false
	}
	tv, okT := pass.TypesInfo.Types[sel.X]
	if !okT {
		return "", 0, false
	}
	if !analysis.NamedFrom(tv.Type, "sync", "Mutex") && !analysis.NamedFrom(tv.Type, "sync", "RWMutex") {
		return "", 0, false
	}
	return types.ExprString(sel.X), kind, true
}

// blockingCall classifies calls that can block indefinitely.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	switch {
	case recv != nil && fn.Name() == "Call" && analysis.NamedFrom(recv.Type(), "internal/udfrt", "Callable"):
		return "Callable.Call (user UDF code)", true
	case recv != nil && analysis.NamedFrom(recv.Type(), "net", "Conn"):
		switch fn.Name() {
		case "Read", "Write":
			return "net.Conn." + fn.Name(), true
		}
	case recv != nil && analysis.NamedFrom(recv.Type(), "internal/wire", "Client"):
		switch fn.Name() {
		case "send", "recv":
			return "wire.Client." + fn.Name() + " (network IO)", true
		}
	case recv != nil && analysis.NamedFrom(recv.Type(), "internal/wire", "frameWriter"):
		switch fn.Name() {
		case "writeFrame", "writeResultStream":
			return "wire.frameWriter." + fn.Name() + " (network IO)", true
		}
	case recv == nil && analysis.PathHasSegments(fn.Pkg().Path(), "internal/wire"):
		switch fn.Name() {
		case "WriteFrame", "ReadFrame", "WriteResultStream":
			return fn.Name() + " (network IO)", true
		}
	}
	return "", false
}

func isChanType(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// reportOp reports one blocking operation under the held set, honoring
// //lockblock:ok on the operation line or the enclosing function.
func reportOp(pass *analysis.Pass, n ast.Node, h held, what string) {
	if pass.HasDirective(n, "lockblock", "ok") {
		return
	}
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	locks := strings.Join(keys, ", ")
	pass.Reportf(n.Pos(), "%s while holding %s can wedge the connection; release the lock first (or annotate //lockblock:ok with a reason)", what, locks)
}

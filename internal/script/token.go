// Package script implements PyLite, a small indentation-sensitive,
// dynamically-typed scripting language with Python surface syntax. PyLite is
// the stand-in for MonetDB/Python's embedded CPython in this reproduction:
// UDF bodies from the paper's listings run in it nearly verbatim, and its
// tracing hooks are what the interactive debugger (internal/debug) and the
// devUDF local-run harness attach to.
//
// Parse runs parse → resolve → compile and returns a Module that is never
// written again, so any number of interpreters may run one Module at once.
// Resolve binds every name to where it lives and folds constant arithmetic;
// compile (compile.go) turns every body and parameter default into Go
// closures, once, specialised on what resolve knows. Each statement run is a
// step, and so is each loop iteration however it ended, but by break;
// MaxSteps bounds steps, and Interrupt is polled every 1024. The trace hook
// is tested as each statement starts: absent, it costs that test; installed,
// a call per event.
//
// Scoping is static, as in CPython: a def or lambda's locals are its
// parameters plus every name its body binds (assignment, augmented
// assignment, for and comprehension targets — comprehensions share the
// enclosing scope, as in Python 2 — `except … as`, def, import) minus names
// it declares `global`; locals live in frame slots, a nested function reads
// its enclosing functions' slots, and anything else is module scope — one
// name-keyed table embedders can read and write (Env) — and behind it the
// builtins. One deviation from the dynamic lookup PyLite used to have:
// reading a function's local before it is bound is an error ("local variable
// 'x' referenced before assignment"), not a read of a same-named global.
// Remaining deviations from CPython: there is no `nonlocal`, default
// arguments are evaluated per call in the defining scope, and an unbound
// variable of an enclosing function reads through to module scope.
//
// Numbers do not touch the heap while a UDF runs. Value, the exported
// interface, boxes: converting an int64 or a float64 to it allocates. Inside
// the package a value is a val (lane.go) — {kind, bits, ref}, passed by
// value — and an int or a float lives in bits. Frame slots, the argument
// stack, every expression's value, the loop variable, arithmetic, comparisons
// and the numeric builtins a loop calls (abs, len, int, float, min, max,
// round) are vals. A list has a lane too: a ListVal whose cells are all ints
// (or all floats, or None) keeps them in a []int64 ([]float64) with a None
// mask, which may be a table column's own vector — NewIntList and
// NewFloatList wrap one without copying, and the list copies it before its
// first write. Indexing, len, iteration, slicing, `in`, sum/min/max/sorted/
// list(), append/extend/sort/reverse/copy/index/count, the numpy shims,
// pickling and a same-typed store all work on the typed slices; a list built
// by appending numbers to [] starts in the lane of the first one. A val is
// boxed into a Value only where it leaves the lane: a store into a dict, a
// tuple, module scope or a list of mixed cells; the arguments of any other
// builtin, method or native object (BuiltinFunc takes Values); Frame.Locals,
// EvalWatch and Interp.Call's result, which is all the debugger and the
// embedder see. A list leaves its lane, once and for good, when something
// that is not taught the lanes needs its cells boxed (ListVal.Boxed, which
// Interp.items and every remaining shim go through) or a cell of another
// type is stored in it. There is one evaluator: boxed and typed lists, and
// boxed and unboxed numbers, differ in cost only, which
// TestBoxedAndColumnBackedAgree (internal/udfrt/conformance) and
// FuzzEvalExpr check.
package script

import "fmt"

// TokKind enumerates PyLite token kinds.
type TokKind int

// Token kinds. Structural tokens (NEWLINE/INDENT/DEDENT) are synthesized by
// the lexer from line breaks and leading whitespace, as in Python.
const (
	TokEOF TokKind = iota
	TokNewline
	TokIndent
	TokDedent
	TokName
	TokInt
	TokFloat
	TokString
	TokOp      // operators and punctuation; Lit holds the exact spelling
	TokKeyword // def, if, ... ; Lit holds the keyword
)

func (k TokKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokNewline:
		return "NEWLINE"
	case TokIndent:
		return "INDENT"
	case TokDedent:
		return "DEDENT"
	case TokName:
		return "NAME"
	case TokInt:
		return "INT"
	case TokFloat:
		return "FLOAT"
	case TokString:
		return "STRING"
	case TokOp:
		return "OP"
	case TokKeyword:
		return "KEYWORD"
	default:
		return "?"
	}
}

// Token is a single lexeme with its source position.
type Token struct {
	Kind TokKind
	Lit  string // exact spelling; for TokString, the decoded value
	Line int    // 1-based
	Col  int    // 1-based
	// EndLine is the line a TokString's closing quote is on: a string is
	// the one token that can span lines (triple-quoted, or continued by a
	// backslash). Zero for every other kind.
	EndLine int
}

func (t Token) String() string {
	if t.Lit == "" {
		return t.Kind.String()
	}
	return fmt.Sprintf("%s(%q)", t.Kind, t.Lit)
}

// keywords is the PyLite reserved-word set.
var keywords = map[string]bool{
	"def": true, "return": true, "if": true, "elif": true, "else": true,
	"for": true, "while": true, "in": true, "not": true, "and": true,
	"or": true, "pass": true, "break": true, "continue": true,
	"import": true, "from": true, "as": true, "is": true,
	"True": true, "False": true, "None": true, "lambda": true,
	"try": true, "except": true, "finally": true, "raise": true,
	"global": true, "del": true, "assert": true,
}

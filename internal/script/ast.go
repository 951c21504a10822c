package script

// Node is the common interface of all PyLite AST nodes.
type Node interface {
	// Pos returns the 1-based source line of the node.
	Pos() int
}

type pos struct{ Line int }

func (p pos) Pos() int { return p.Line }

// ---- Statements ----

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmt()
}

// Module is a parsed source file: a flat list of top-level statements.
type Module struct {
	Name  string
	Body  []Stmt
	Lines []string // original source split by line, for tracebacks

	code block // Body, compiled by Parse
}

// ExprStmt is a bare expression evaluated for effect (e.g. a call).
type ExprStmt struct {
	pos
	X Expr
}

// AssignStmt binds Value to each of Targets (a = b = expr is not supported;
// exactly one target). Targets can be Name, Index, Attr or Tuple nodes.
type AssignStmt struct {
	pos
	Target Expr
	Value  Expr
}

// AugAssignStmt is an augmented assignment such as x += 1. Op is the
// operator without '=', e.g. OpAdd.
type AugAssignStmt struct {
	pos
	Target Expr
	Op     Op
	Value  Expr
}

// ReturnStmt returns Value (nil means None) from the enclosing function.
type ReturnStmt struct {
	pos
	Value Expr
}

// PassStmt does nothing.
type PassStmt struct{ pos }

// BreakStmt exits the innermost loop.
type BreakStmt struct{ pos }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ pos }

// IfStmt is an if/elif/else chain. Elifs are nested IfStmts in Else.
type IfStmt struct {
	pos
	Cond Expr
	Body []Stmt
	Else []Stmt // may be nil
}

// WhileStmt loops while Cond is truthy.
type WhileStmt struct {
	pos
	Cond Expr
	Body []Stmt
}

// ForStmt iterates Target over Iter.
type ForStmt struct {
	pos
	Target Expr // Name or Tuple of Names
	Iter   Expr
	Body   []Stmt
}

// DefStmt defines a function.
type DefStmt struct {
	pos
	Name    string
	Params  []Param
	Body    []Stmt
	EndLine int

	bind  *Name     // where the function value is stored
	scope *funcInfo // the body's slot table
}

// Param is a function parameter with an optional default expression.
type Param struct {
	Name    string
	Default Expr // nil when required
}

// ImportStmt is `import a.b` or `import a.b as c`.
type ImportStmt struct {
	pos
	Module string
	Alias  string // binding name; defaults to first path segment

	bind *Name
}

// FromImportStmt is `from a.b import c, d as e`.
type FromImportStmt struct {
	pos
	Module string
	Names  [][2]string // pairs of (exported name, binding alias)

	binds []*Name // one per alias
}

// GlobalStmt declares names as referring to module scope. It acts at
// resolve time; executing it only counts a step.
type GlobalStmt struct {
	pos
	Names []string
}

// DelStmt removes a binding or container element.
type DelStmt struct {
	pos
	Target Expr
}

// AssertStmt raises when Cond is falsy.
type AssertStmt struct {
	pos
	Cond Expr
	Msg  Expr // may be nil
}

// RaiseStmt raises an error. Value may be nil (re-raise is not supported).
type RaiseStmt struct {
	pos
	Value Expr
}

// TryStmt is try/except/finally. Only a single catch-all except clause with
// an optional binding name is supported, which covers the paper's needs.
type TryStmt struct {
	pos
	Body    []Stmt
	ExcName string // binding for the error message; "" for none
	Handler []Stmt // nil when no except clause
	Finally []Stmt // nil when no finally clause

	excBind *Name // nil when ExcName is ""
}

func (*ExprStmt) stmt()       {}
func (*AssignStmt) stmt()     {}
func (*AugAssignStmt) stmt()  {}
func (*ReturnStmt) stmt()     {}
func (*PassStmt) stmt()       {}
func (*BreakStmt) stmt()      {}
func (*ContinueStmt) stmt()   {}
func (*IfStmt) stmt()         {}
func (*WhileStmt) stmt()      {}
func (*ForStmt) stmt()        {}
func (*DefStmt) stmt()        {}
func (*ImportStmt) stmt()     {}
func (*FromImportStmt) stmt() {}
func (*GlobalStmt) stmt()     {}
func (*DelStmt) stmt()        {}
func (*AssertStmt) stmt()     {}
func (*RaiseStmt) stmt()      {}
func (*TryStmt) stmt()        {}

// ---- Expressions ----

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	expr()
}

// Name references a variable. The resolve pass fills in where it lives:
// a frame slot depth function scopes out, module scope, or the builtin
// table (consulted behind module scope).
type Name struct {
	pos
	Ident string

	kind  nameKind
	depth int // nameLocal: enclosing-function hops from the using frame
	idx   int // nameLocal: slot; nameBuiltin: index into builtinTable
}

type nameKind uint8

const (
	nameGlobal nameKind = iota
	nameLocal
	nameBuiltin
)

// Lit is a literal — int, float, str, True, False or None — carrying its
// value already boxed, so evaluating one does not allocate. The resolve
// pass also folds constant arithmetic into one.
type Lit struct {
	pos
	Value Value
}

// SeqLit is a list display [a, b, ...] or, with Tuple set, a tuple: (a, b)
// or a bare comma-list a, b. As an assignment target either unpacks.
type SeqLit struct {
	pos
	Elems []Expr
	Tuple bool
}

// DictLit is {k: v, ...}.
type DictLit struct {
	pos
	Keys   []Expr
	Values []Expr
}

// Op is a unary or binary operator. The arithmetic operators come first so
// the interpreter can test for them with one comparison.
type Op uint8

// Operators.
const (
	OpAdd Op = iota + 1
	OpSub
	OpMul
	OpDiv
	OpFloorDiv
	OpMod
	OpPow
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpIs
	OpIsNot
	OpIn
	OpNotIn
	OpAnd
	OpOr
	OpNot
)

var opNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpFloorDiv: "//", OpMod: "%", OpPow: "**",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpIs: "is", OpIsNot: "is not", OpIn: "in", OpNotIn: "not in",
	OpAnd: "and", OpOr: "or", OpNot: "not",
}

func (o Op) String() string { return opNames[o] }

// opOf maps an operator token's spelling to its Op.
func opOf(spelling string) Op {
	for o, s := range opNames {
		if s == spelling {
			return Op(o)
		}
	}
	panic("script: unknown operator " + spelling)
}

// UnaryExpr applies Op (OpSub or OpNot) to X.
type UnaryExpr struct {
	pos
	Op Op
	X  Expr
}

// BinExpr applies a binary operator. Comparisons are represented here too;
// chained comparisons (a < b < c) are expanded by the parser into
// (a < b) and (b < c).
type BinExpr struct {
	pos
	Op   Op
	L, R Expr
}

// CallExpr invokes Fn with positional Args and keyword Kwargs.
type CallExpr struct {
	pos
	Fn     Expr
	Args   []Expr
	KwName []string
	KwVal  []Expr
}

// IndexExpr is X[Idx].
type IndexExpr struct {
	pos
	X   Expr
	Idx Expr
}

// SliceExpr is X[Lo:Hi] with optional bounds.
type SliceExpr struct {
	pos
	X      Expr
	Lo, Hi Expr // either may be nil
}

// AttrExpr is X.Name.
type AttrExpr struct {
	pos
	X    Expr
	Name string
}

// LambdaExpr is lambda params: body-expression.
type LambdaExpr struct {
	pos
	Params []Param
	Body   Expr

	scope *funcInfo
}

// CondExpr is the ternary `a if cond else b`.
type CondExpr struct {
	pos
	Cond       Expr
	Then, Else Expr
}

// CompExpr is a list comprehension `[elem for target in iter if cond]`.
// Like Python 2 (and unlike Python 3), the loop variable is evaluated in
// the enclosing scope.
type CompExpr struct {
	pos
	Elem   Expr
	Target Expr
	Iter   Expr
	Cond   Expr // nil when absent
}

func (*Name) expr()       {}
func (*Lit) expr()        {}
func (*SeqLit) expr()     {}
func (*DictLit) expr()    {}
func (*UnaryExpr) expr()  {}
func (*BinExpr) expr()    {}
func (*CallExpr) expr()   {}
func (*IndexExpr) expr()  {}
func (*SliceExpr) expr()  {}
func (*AttrExpr) expr()   {}
func (*LambdaExpr) expr() {}
func (*CondExpr) expr()   {}
func (*CompExpr) expr()   {}

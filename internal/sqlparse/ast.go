package sqlparse

import (
	"strings"

	"repro/internal/storage"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmtNode() }

// CreateTable is CREATE TABLE name (col type, ...).
type CreateTable struct {
	Name   string
	Schema storage.Schema
}

// DropTable is DROP TABLE name.
type DropTable struct {
	Name string
}

// CreateFunction is CREATE [OR REPLACE] FUNCTION name(params) RETURNS ...
// LANGUAGE PYTHON { body }.
type CreateFunction struct {
	Name      string
	Params    storage.Schema
	Returns   storage.Schema // one anonymous column for scalar functions
	IsTable   bool
	Language  string
	Body      string
	OrReplace bool
}

// DropFunction is DROP FUNCTION name.
type DropFunction struct {
	Name string
}

// Insert is INSERT INTO name VALUES (...), (...).
type Insert struct {
	Table string
	Rows  [][]Expr
}

// CopyInto is COPY INTO name FROM 'path' [WITH HEADER]; it bulk-loads CSV.
type CopyInto struct {
	Table  string
	Path   string
	Header bool
}

// SelectItem is one projection: either * or an expression with an optional
// alias.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Select is a SELECT query.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     FromClause // nil for FROM-less selects
	Where    Expr       // nil when absent
	GroupBy  []Expr
	Having   Expr // nil when absent
	OrderBy  []OrderItem
	Limit    int64 // -1 when absent
}

func (*CreateTable) stmtNode()    {}
func (*DropTable) stmtNode()      {}
func (*CreateFunction) stmtNode() {}
func (*DropFunction) stmtNode()   {}
func (*Insert) stmtNode()         {}
func (*CopyInto) stmtNode()       {}
func (*Select) stmtNode()         {}

// FromClause is a data source in FROM.
type FromClause interface{ fromNode() }

// FromTable scans a named table (possibly a sys.* meta table).
type FromTable struct {
	Name  string
	Alias string
}

// FromFunc scans the output of a table function: SELECT * FROM f(...).
type FromFunc struct {
	Call  *FuncCall
	Alias string
}

// FromSelect scans a subquery.
type FromSelect struct {
	Sel   *Select
	Alias string
}

func (*FromTable) fromNode()  {}
func (*FromFunc) fromNode()   {}
func (*FromSelect) fromNode() {}

// Expr is any SQL expression.
type Expr interface{ exprNode() }

// ColRef references a column, optionally table-qualified.
type ColRef struct {
	Table string // "" when unqualified
	Name  string
}

// IntLit is an integer literal.
type IntLit struct{ Value int64 }

// FloatLit is a float literal.
type FloatLit struct{ Value float64 }

// StrLit is a string literal.
type StrLit struct{ Value string }

// BoolLit is TRUE or FALSE.
type BoolLit struct{ Value bool }

// NullLit is NULL.
type NullLit struct{}

// Placeholder is a bind parameter awaiting a value at execution time:
// positional `?` or numbered `$n` (1-based in the SQL text). Index is the
// 0-based bind slot — assigned in appearance order for `?`, n-1 for `$n`.
// A statement uses one style only; the parser rejects mixing them.
type Placeholder struct {
	Index    int
	Numbered bool
}

// BinaryExpr applies an operator: arithmetic, comparison, AND, OR, ||.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr is -x or NOT x.
type UnaryExpr struct {
	Op string
	X  Expr
}

// IsNullExpr is `x IS [NOT] NULL`.
type IsNullExpr struct {
	X   Expr
	Neg bool
}

// FuncCall invokes a function: UDF, aggregate or scalar builtin.
// COUNT(*) sets Star.
type FuncCall struct {
	Name string
	Args []Expr
	Star bool
}

// IsAggregate reports whether name, in any case, is an aggregate function:
// COUNT, SUM, AVG, MIN or MAX.
func IsAggregate(name string) bool {
	switch strings.ToLower(name) {
	case "count", "sum", "avg", "min", "max":
		return true
	}
	return false
}

// HasAggregate reports whether e calls an aggregate outside a subquery.
func HasAggregate(e Expr) bool {
	found := false
	EditExpr(e, func(x Expr) (Expr, bool) {
		switch x := x.(type) {
		case *FuncCall:
			found = found || IsAggregate(x.Name)
		case *Subquery:
			return x, false
		}
		return x, !found
	})
	return found
}

// Subquery is a parenthesized SELECT used as a (table-valued) argument —
// the paper's `train_rnforest((SELECT data, labels FROM trainingset), n)`
// pattern, where each output column binds to one UDF parameter.
type Subquery struct {
	Sel *Select
}

// CastExpr is CAST(x AS type).
type CastExpr struct {
	X  Expr
	To storage.Type
}

func (*ColRef) exprNode()      {}
func (*Placeholder) exprNode() {}
func (*IntLit) exprNode()      {}
func (*FloatLit) exprNode()    {}
func (*StrLit) exprNode()      {}
func (*BoolLit) exprNode()     {}
func (*NullLit) exprNode()     {}
func (*BinaryExpr) exprNode()  {}
func (*UnaryExpr) exprNode()   {}
func (*IsNullExpr) exprNode()  {}
func (*FuncCall) exprNode()    {}
func (*Subquery) exprNode()    {}
func (*CastExpr) exprNode()    {}

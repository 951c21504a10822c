package sqlparse

import (
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/storage"
)

// Parser consumes a token stream into statements.
type parser struct {
	toks []token
	pos  int
	// placeholder bookkeeping, reset per top-level statement: positional
	// '?' count, and the byte position of each distinct $n seen (the
	// density check reports gaps with the position of the highest $n).
	qmarks      int
	numberedPos map[int]int
	lits        []Expr // per literal token: its node, or nil for a LIMIT or COPY path
}

// maxPlaceholder bounds $n at parse time; anything larger is a typo or an
// attack, not a bind list.
const maxPlaceholder = 1 << 16

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(sql string) (Statement, error) { return new(parser).one(sql) }

// ParseAll parses a semicolon-separated script of statements.
func ParseAll(sql string) ([]Statement, error) { return new(parser).script(sql) }

func (p *parser) one(sql string) (Statement, error) {
	stmts, err := p.script(sql)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, core.Errorf(core.KindSyntax, "expected exactly one statement, found %d", len(stmts))
	}
	return stmts[0], nil
}

func (p *parser) script(sql string) ([]Statement, error) {
	lx := &lexer{src: sql}
	toks, err := lx.lex()
	if err != nil {
		return nil, err
	}
	p.toks = toks
	var stmts []Statement
	for {
		for p.atOp(";") {
			p.next()
		}
		if p.at(tEOF) {
			return stmts, nil
		}
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		if err := p.finishPlaceholders(); err != nil {
			return nil, err
		}
		stmts = append(stmts, st)
		if !p.atOp(";") && !p.at(tEOF) {
			return nil, p.errf("unexpected input after statement: %q", p.cur().lit)
		}
	}
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(k tokKind) bool { return p.cur().kind == k }
func (p *parser) atOp(op string) bool {
	return p.cur().kind == tOp && p.cur().lit == op
}

// atKw matches an identifier token case-insensitively against a keyword.
// Quoted identifiers are never keywords: `"select"` names a column.
func (p *parser) atKw(kw string) bool {
	return p.cur().kind == tIdent && !p.cur().quoted && strings.EqualFold(p.cur().lit, kw)
}

func (p *parser) acceptKw(kw string) bool {
	if p.atKw(kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) acceptOp(op string) bool {
	if p.atOp(op) {
		p.next()
		return true
	}
	return false
}

func (p *parser) errf(format string, args ...any) error {
	return core.Errorf(core.KindSyntax, "SQL: "+format, args...)
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, found %q", strings.ToUpper(kw), p.cur().lit)
	}
	return nil
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q, found %q", op, p.cur().lit)
	}
	return nil
}

// reservedWords are the structural keywords the printer always emits bare.
// They are rejected as identifiers: accepting them (e.g. a column named
// "select") would make Format produce SQL that reparses differently.
// Contextual keywords ("language", "header", "replace", "returns") stay
// usable as identifiers — the server's own meta tables have a "language"
// column.
var reservedWords = map[string]bool{
	"select": true, "from": true, "where": true, "group": true,
	"order": true, "having": true, "limit": true, "by": true,
	"distinct": true, "asc": true, "desc": true,
	"and": true, "or": true, "not": true, "is": true, "as": true,
	"insert": true, "into": true, "values": true,
	"create": true, "drop": true, "copy": true, "cast": true,
	"table": true, "function": true,
	"null": true, "true": true, "false": true,
}

func (p *parser) ident() (string, error) {
	if !p.at(tIdent) {
		return "", p.errf("expected identifier, found %q", p.cur().lit)
	}
	if !p.cur().quoted && reservedWords[strings.ToLower(p.cur().lit)] {
		return "", p.errf("reserved word %q cannot be used as an identifier (quote it: \"%s\")",
			p.cur().lit, p.cur().lit)
	}
	return p.next().lit, nil
}

// qualifiedName parses name or schema.name ("sys.functions").
func (p *parser) qualifiedName() (string, error) {
	first, err := p.ident()
	if err != nil {
		return "", err
	}
	if p.acceptOp(".") {
		second, err := p.ident()
		if err != nil {
			return "", err
		}
		return first + "." + second, nil
	}
	return first, nil
}

// placeholder consumes one '?' or '$n' op token into a Placeholder node,
// enforcing single-style use and the $n range at parse time.
func (p *parser) placeholder() (Expr, error) {
	t := p.next()
	if t.lit == "?" {
		if len(p.numberedPos) > 0 {
			return nil, p.errf("cannot mix '?' and '$n' placeholders in one statement (byte %d)", t.pos)
		}
		ph := &Placeholder{Index: p.qmarks}
		p.qmarks++
		return ph, nil
	}
	n, err := strconv.Atoi(t.lit[1:])
	if err != nil || n < 1 {
		return nil, p.errf("invalid placeholder %q at byte %d: numbered placeholders start at $1", t.lit, t.pos)
	}
	if n > maxPlaceholder {
		return nil, p.errf("placeholder %q at byte %d is out of range (max $%d)", t.lit, t.pos, maxPlaceholder)
	}
	if p.qmarks > 0 {
		return nil, p.errf("cannot mix '?' and '$n' placeholders in one statement (byte %d)", t.pos)
	}
	if p.numberedPos == nil {
		p.numberedPos = map[int]int{}
	}
	if _, seen := p.numberedPos[n]; !seen {
		p.numberedPos[n] = t.pos
	}
	return &Placeholder{Index: n - 1, Numbered: true}, nil
}

// finishPlaceholders validates a completed statement's placeholder set:
// numbered placeholders must be dense from $1 (a $5 without $1..$4 names a
// bind slot no argument can fill), reported with the position of the
// highest one. It also resets the per-statement bookkeeping.
func (p *parser) finishPlaceholders() error {
	defer func() {
		p.qmarks = 0
		p.numberedPos = nil
	}()
	if len(p.numberedPos) == 0 {
		return nil
	}
	max := 0
	for n := range p.numberedPos {
		if n > max {
			max = n
		}
	}
	for n := 1; n <= max; n++ {
		if _, ok := p.numberedPos[n]; !ok {
			return p.errf("placeholder $%d at byte %d is out of range: statement never binds $%d",
				max, p.numberedPos[max], n)
		}
	}
	return nil
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.atKw("create"):
		return p.createStmt()
	case p.atKw("drop"):
		return p.dropStmt()
	case p.atKw("insert"):
		return p.insertStmt()
	case p.atKw("copy"):
		return p.copyStmt()
	case p.atKw("select"):
		return p.selectStmt()
	default:
		return nil, p.errf("unsupported statement starting with %q", p.cur().lit)
	}
}

func (p *parser) createStmt() (Statement, error) {
	p.next() // CREATE
	orReplace := false
	if p.acceptKw("or") {
		if err := p.expectKw("replace"); err != nil {
			return nil, err
		}
		orReplace = true
	}
	switch {
	case p.acceptKw("table"):
		if orReplace {
			return nil, p.errf("OR REPLACE is only supported for functions")
		}
		return p.createTable()
	case p.acceptKw("function"):
		return p.createFunction(orReplace)
	default:
		return nil, p.errf("expected TABLE or FUNCTION after CREATE")
	}
}

func (p *parser) createTable() (Statement, error) {
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	schema, err := p.columnDefs()
	if err != nil {
		return nil, err
	}
	return &CreateTable{Name: name, Schema: schema}, nil
}

// columnDefs parses `name type, ...` up to and including ')'.
func (p *parser) columnDefs() (storage.Schema, error) {
	var schema storage.Schema
	for {
		cname, err := p.ident()
		if err != nil {
			return nil, err
		}
		tname, err := p.ident()
		if err != nil {
			return nil, err
		}
		typ, err := storage.ParseType(tname)
		if err != nil {
			return nil, err
		}
		schema = append(schema, storage.ColumnDef{Name: cname, Type: typ})
		if p.acceptOp(",") {
			continue
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return schema, nil
	}
}

func (p *parser) createFunction(orReplace bool) (Statement, error) {
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	cf := &CreateFunction{Name: name, OrReplace: orReplace}
	if !p.acceptOp(")") {
		params, err := p.columnDefs()
		if err != nil {
			return nil, err
		}
		cf.Params = params
	}
	if err := p.expectKw("returns"); err != nil {
		return nil, err
	}
	if p.acceptKw("table") {
		cf.IsTable = true
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		rets, err := p.columnDefs()
		if err != nil {
			return nil, err
		}
		cf.Returns = rets
	} else {
		tname, err := p.ident()
		if err != nil {
			return nil, err
		}
		typ, err := storage.ParseType(tname)
		if err != nil {
			return nil, err
		}
		cf.Returns = storage.Schema{{Name: "result", Type: typ}}
	}
	if err := p.expectKw("language"); err != nil {
		return nil, err
	}
	lang, err := p.ident()
	if err != nil {
		return nil, err
	}
	// Any language identifier parses; the engine checks it against the
	// registered UDF runtimes at CREATE time, so the grammar does not need
	// to know which backends this build ships.
	cf.Language = strings.ToUpper(lang)
	if !p.at(tBody) {
		return nil, p.errf("expected '{' UDF body, found %q", p.cur().lit)
	}
	cf.Body = dedentBody(p.next().lit)
	return cf, nil
}

// dedentBody normalizes a UDF body: strips a common leading indentation so
// bodies written indented inside CREATE FUNCTION parse as top-level code.
func dedentBody(body string) string {
	lines := strings.Split(body, "\n")
	// drop leading/trailing blank lines
	for len(lines) > 0 && strings.TrimSpace(lines[0]) == "" {
		lines = lines[1:]
	}
	for len(lines) > 0 && strings.TrimSpace(lines[len(lines)-1]) == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return ""
	}
	indent := -1
	for _, ln := range lines {
		if strings.TrimSpace(ln) == "" {
			continue
		}
		n := len(ln) - len(strings.TrimLeft(ln, " \t"))
		if indent < 0 || n < indent {
			indent = n
		}
	}
	if indent <= 0 {
		return strings.Join(lines, "\n")
	}
	out := make([]string, len(lines))
	for i, ln := range lines {
		if len(ln) >= indent {
			out[i] = ln[indent:]
		} else {
			out[i] = strings.TrimLeft(ln, " \t")
		}
	}
	return strings.Join(out, "\n")
}

func (p *parser) dropStmt() (Statement, error) {
	p.next() // DROP
	switch {
	case p.acceptKw("table"):
		name, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		return &DropTable{Name: name}, nil
	case p.acceptKw("function"):
		name, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		return &DropFunction{Name: name}, nil
	default:
		return nil, p.errf("expected TABLE or FUNCTION after DROP")
	}
}

func (p *parser) insertStmt() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("values"); err != nil {
		return nil, err
	}
	ins := &Insert{Table: name}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptOp(",") {
			return ins, nil
		}
	}
}

func (p *parser) copyStmt() (Statement, error) {
	p.next() // COPY
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	if !p.at(tString) {
		return nil, p.errf("expected file path string after FROM")
	}
	p.lits = append(p.lits, nil)
	ci := &CopyInto{Table: name, Path: p.next().lit}
	if p.acceptKw("with") {
		if err := p.expectKw("header"); err != nil {
			return nil, err
		}
		ci.Header = true
	}
	return ci, nil
}

func (p *parser) selectStmt() (*Select, error) {
	p.next() // SELECT
	sel := &Select{Limit: -1}
	if p.acceptKw("distinct") {
		sel.Distinct = true
	}
	for {
		if p.atOp("*") {
			p.next()
			sel.Items = append(sel.Items, SelectItem{Star: true})
		} else {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKw("as") {
				alias, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			}
			sel.Items = append(sel.Items, item)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("from") {
		from, err := p.fromClause()
		if err != nil {
			return nil, err
		}
		sel.From = from
	}
	if p.acceptKw("where") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("having") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.acceptKw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("desc") {
				item.Desc = true
			} else {
				p.acceptKw("asc")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("limit") {
		if !p.at(tNumber) {
			return nil, p.errf("expected number after LIMIT")
		}
		p.lits = append(p.lits, nil)
		n, err := strconv.ParseInt(p.next().lit, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT value")
		}
		sel.Limit = n
	}
	return sel, nil
}

func (p *parser) fromClause() (FromClause, error) {
	if p.acceptOp("(") {
		if !p.atKw("select") {
			return nil, p.errf("expected SELECT in subquery")
		}
		sub, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		alias := ""
		p.acceptKw("as")
		if p.at(tIdent) && !p.isClauseKeyword() {
			alias, _ = p.ident()
		}
		return &FromSelect{Sel: sub, Alias: alias}, nil
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	if p.atOp("(") {
		// table function
		call, err := p.finishCall(name)
		if err != nil {
			return nil, err
		}
		alias := ""
		p.acceptKw("as")
		if p.at(tIdent) && !p.isClauseKeyword() {
			alias, _ = p.ident()
		}
		return &FromFunc{Call: call, Alias: alias}, nil
	}
	alias := ""
	p.acceptKw("as")
	if p.at(tIdent) && !p.isClauseKeyword() {
		alias, _ = p.ident()
	}
	return &FromTable{Name: name, Alias: alias}, nil
}

// isClauseKeyword prevents clause keywords from being eaten as aliases.
func (p *parser) isClauseKeyword() bool {
	for _, kw := range []string{"where", "group", "having", "order", "limit", "on", "select", "from", "with", "header"} {
		if p.atKw(kw) {
			return true
		}
	}
	return false
}

// ---- expressions (precedence climbing) ----

func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("or") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("and") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.acceptKw("not") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKw("is") {
		neg := p.acceptKw("not")
		if err := p.expectKw("null"); err != nil {
			return nil, err
		}
		return &IsNullExpr{X: l, Neg: neg}, nil
	}
	for _, op := range []string{"=", "<>", "!=", "<=", ">=", "<", ">"} {
		if p.atOp(op) {
			p.next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			canon := op
			if op == "!=" {
				canon = "<>"
			}
			return &BinaryExpr{Op: canon, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atOp("+"), p.atOp("-"), p.atOp("||"):
			op := p.next().lit
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: op, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atOp("*"), p.atOp("/"), p.atOp("%"):
			op := p.next().lit
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: op, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) unary() (Expr, error) {
	if p.acceptOp("-") {
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	if p.acceptOp("+") {
		return p.unary()
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tNumber, tString:
		p.next()
		var e Expr
		switch litOf(t).Kind {
		case storage.TInt:
			n, err := strconv.ParseInt(t.lit, 10, 64)
			if err != nil {
				return nil, p.errf("bad integer %q", t.lit)
			}
			e = &IntLit{Value: n}
		case storage.TFloat:
			f, err := strconv.ParseFloat(t.lit, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.lit)
			}
			e = &FloatLit{Value: f}
		default:
			e = &StrLit{Value: strings.Clone(t.lit)} // not a slice of the text
		}
		p.lits = append(p.lits, e)
		return e, nil
	case tIdent:
		switch {
		case p.atKw("null"):
			p.next()
			return &NullLit{}, nil
		case p.atKw("true"):
			p.next()
			return &BoolLit{Value: true}, nil
		case p.atKw("false"):
			p.next()
			return &BoolLit{Value: false}, nil
		case p.atKw("cast"):
			p.next()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("as"); err != nil {
				return nil, err
			}
			tn, err := p.ident()
			if err != nil {
				return nil, err
			}
			typ, err := storage.ParseType(tn)
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &CastExpr{X: x, To: typ}, nil
		}
		// Parse the (possibly qualified) name part by part rather than
		// re-splitting the joined string: a "quoted" identifier may contain
		// a dot without naming a table qualifier.
		first, err := p.ident()
		if err != nil {
			return nil, err
		}
		if p.acceptOp(".") {
			second, err := p.ident()
			if err != nil {
				return nil, err
			}
			if p.atOp("(") {
				return p.finishCall(first + "." + second)
			}
			return &ColRef{Table: first, Name: second}, nil
		}
		if p.atOp("(") {
			return p.finishCall(first)
		}
		return &ColRef{Name: first}, nil
	case tOp:
		if t.lit == "?" || strings.HasPrefix(t.lit, "$") {
			return p.placeholder()
		}
		if t.lit == "(" {
			p.next()
			if p.atKw("select") {
				sub, err := p.selectStmt()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &Subquery{Sel: sub}, nil
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token %q in expression", t.lit)
}

// finishCall parses the argument list of name(...), assuming the caller is
// positioned at '('.
func (p *parser) finishCall(name string) (*FuncCall, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	call := &FuncCall{Name: name}
	if p.acceptOp(")") {
		return call, nil
	}
	if p.atOp("*") {
		p.next()
		call.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return call, nil
	}
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, e)
		if p.acceptOp(",") {
			continue
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return call, nil
	}
}

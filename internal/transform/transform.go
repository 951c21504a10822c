// Package transform implements devUDF's code transformations (paper §2.2):
//
//   - WrapFunction: the server-side wrap that turns a stored body into a
//     callable definition (the database only stores the function body);
//   - BuildLocalScript: the client-side transformation of Listing 2 — add
//     the synthesized header, then a prologue that loads the function's
//     input parameters from a pickled input.bin and calls the function;
//   - ExtractBody: the reverse transformation applied on export, committing
//     only the function body back to the database;
//   - RewriteToExtract: the SQL rewrite that replaces the UDF call in the
//     user's query with the server-side extract function so the input data
//     is shipped to the client instead of executing the UDF (paper §2.2);
//   - FindUDFCalls / FindLoopbackUDFs: discovery of the debugged UDF in a
//     query and of nested UDFs reachable through _conn loopback queries
//     (paper §2.3).
package transform

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sqlparse"
	"repro/internal/transfer"
)

// WrapFunction synthesizes `def name(params):` around a stored body.
func WrapFunction(name string, params []string, body string) string {
	var sb strings.Builder
	sb.WriteString("def ")
	sb.WriteString(name)
	sb.WriteByte('(')
	sb.WriteString(strings.Join(params, ", "))
	sb.WriteString("):\n")
	if strings.TrimSpace(body) == "" {
		sb.WriteString("    pass\n")
		return sb.String()
	}
	for _, ln := range strings.Split(body, "\n") {
		if strings.TrimSpace(ln) == "" {
			sb.WriteByte('\n')
			continue
		}
		sb.WriteString("    ")
		sb.WriteString(ln)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Markers bracket the function definition inside generated local scripts so
// ExtractBody can reverse the transformation byte-exactly.
const (
	beginMarker = "# --- devUDF: function body (edit between markers) ---"
	endMarker   = "# --- devUDF: end function body ---"
)

// LocalScriptInfo describes the UDF a local script is generated for.
type LocalScriptInfo struct {
	Name      string
	Params    []string
	Body      string
	InputFile string // path the prologue loads, e.g. "./input.bin"
}

// BuildLocalScript generates the runnable debug script of paper Listing 2:
// header + function definition + pickled-input prologue + invocation. The
// result parses and runs under PyLite, and the IDE user edits the function
// body between the markers.
func BuildLocalScript(info LocalScriptInfo) string {
	var sb strings.Builder
	sb.WriteString("import pickle\n\n")
	sb.WriteString(beginMarker + "\n")
	sb.WriteString(WrapFunction(info.Name, info.Params, info.Body))
	sb.WriteString(endMarker + "\n\n")
	inputFile := info.InputFile
	if inputFile == "" {
		inputFile = "./input.bin"
	}
	sb.WriteString("input_parameters = pickle.load(open('" + inputFile + "', 'rb'))\n\n")
	sb.WriteString("result = " + info.Name + "(")
	for i, p := range info.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "input_parameters[%q]", p)
	}
	sb.WriteString(")\n")
	fmt.Fprintf(&sb, "print('devUDF: %s returned', repr(result))\n", info.Name)
	return sb.String()
}

// ExtractBody reverses BuildLocalScript: it locates the function definition
// (between markers if present, otherwise by its def line) and returns the
// dedented body — the only part committed back to the database on export.
func ExtractBody(source, name string) (string, error) {
	lines := strings.Split(source, "\n")
	begin, end := -1, -1
	for i, ln := range lines {
		switch strings.TrimSpace(ln) {
		case beginMarker:
			begin = i
		case endMarker:
			if end < 0 {
				end = i
			}
		}
	}
	if begin >= 0 && end > begin {
		lines = lines[begin+1 : end]
	}
	// find the def line
	defPrefix := "def " + name
	defIdx := -1
	for i, ln := range lines {
		trimmed := strings.TrimSpace(ln)
		if strings.HasPrefix(trimmed, defPrefix) &&
			(len(trimmed) == len(defPrefix) || !isIdentByte(trimmed[len(defPrefix)])) {
			defIdx = i
			break
		}
	}
	if defIdx < 0 {
		return "", core.Errorf(core.KindName,
			"could not find 'def %s(...)' in the source file", name)
	}
	var body []string
	for _, ln := range lines[defIdx+1:] {
		if strings.TrimSpace(ln) == "" {
			body = append(body, "")
			continue
		}
		if !strings.HasPrefix(ln, " ") && !strings.HasPrefix(ln, "\t") {
			break // dedent: function ended
		}
		body = append(body, ln)
	}
	for len(body) > 0 && body[len(body)-1] == "" {
		body = body[:len(body)-1]
	}
	if len(body) == 0 {
		return "", core.Errorf(core.KindConstraint, "function %s has an empty body", name)
	}
	return dedent(body), nil
}

func isIdentByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func dedent(lines []string) string {
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
		}
	}
	return strings.Join(out, "\n")
}

// ExtractFuncName is the server-side table function the rewritten query
// calls instead of the UDF.
const ExtractFuncName = "sys_extract"

// RewriteToExtract replaces the call to udfName in the query with
// sys_extract('udfName', '<options>', <original arguments...>), preserving
// subquery arguments — the transformation of paper §2.2. It returns the
// rewritten SQL text.
func RewriteToExtract(sql, udfName string, opts transfer.Options) (string, error) {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	sel, ok := st.(*sqlparse.Select)
	if !ok {
		return "", core.Errorf(core.KindConstraint, "only SELECT queries can be rewritten for extraction")
	}
	replaced := 0
	rewriteCall := func(call *sqlparse.FuncCall) *sqlparse.FuncCall {
		if !strings.EqualFold(call.Name, udfName) {
			return call
		}
		replaced++
		args := append([]sqlparse.Expr{
			&sqlparse.StrLit{Value: call.Name},
			&sqlparse.StrLit{Value: opts.Encode()},
		}, call.Args...)
		return &sqlparse.FuncCall{Name: ExtractFuncName, Args: args}
	}
	rewriteSelect(sel, rewriteCall)
	if replaced == 0 {
		return "", core.Errorf(core.KindName,
			"query does not call UDF %q", udfName)
	}
	// The extract function is table-valued: if the UDF was called in the
	// projection (SELECT udf(col) FROM t), hoist the rewritten call into
	// FROM and select everything from it.
	if callInItems(sel, ExtractFuncName) {
		hoisted := hoistProjectionCall(sel)
		if hoisted != nil {
			sel = hoisted
		}
	}
	return sqlparse.Format(sel), nil
}

func callInItems(sel *sqlparse.Select, name string) bool {
	for _, item := range sel.Items {
		if item.Expr == nil {
			continue
		}
		if call, ok := item.Expr.(*sqlparse.FuncCall); ok && strings.EqualFold(call.Name, name) {
			return true
		}
	}
	return false
}

// hoistProjectionCall turns `SELECT sys_extract(args) FROM src [WHERE ...]`
// into `SELECT * FROM sys_extract('...', (SELECT args FROM src WHERE ...))`
// shape: each column argument becomes a subquery over the original source
// so filters still apply before extraction.
func hoistProjectionCall(sel *sqlparse.Select) *sqlparse.Select {
	if len(sel.Items) != 1 || sel.Items[0].Expr == nil {
		return nil
	}
	call, ok := sel.Items[0].Expr.(*sqlparse.FuncCall)
	if !ok {
		return nil
	}
	// Column-reference arguments need the original FROM/WHERE context;
	// wrap each in a subquery over it.
	for i, a := range call.Args {
		if needsSourceContext(a) {
			call.Args[i] = &sqlparse.Subquery{Sel: &sqlparse.Select{
				Items: []sqlparse.SelectItem{{Expr: a}},
				From:  sel.From,
				Where: sel.Where,
				Limit: -1,
			}}
		}
	}
	return &sqlparse.Select{
		Items: []sqlparse.SelectItem{{Star: true}},
		From:  &sqlparse.FromFunc{Call: call},
		Limit: -1,
	}
}

func needsSourceContext(e sqlparse.Expr) bool {
	switch e := e.(type) {
	case *sqlparse.ColRef:
		return true
	case *sqlparse.BinaryExpr:
		return needsSourceContext(e.L) || needsSourceContext(e.R)
	case *sqlparse.UnaryExpr:
		return needsSourceContext(e.X)
	case *sqlparse.CastExpr:
		return needsSourceContext(e.X)
	case *sqlparse.FuncCall:
		for _, a := range e.Args {
			if needsSourceContext(a) {
				return true
			}
		}
	}
	return false
}

// rewriteSelect walks a select, applying fn to every function call
// (projection, FROM, WHERE, nested subqueries).
func rewriteSelect(sel *sqlparse.Select, fn func(*sqlparse.FuncCall) *sqlparse.FuncCall) {
	for i, item := range sel.Items {
		if item.Expr != nil {
			sel.Items[i].Expr = rewriteExpr(item.Expr, fn)
		}
	}
	switch f := sel.From.(type) {
	case *sqlparse.FromFunc:
		f.Call = fn(f.Call)
		for i, a := range f.Call.Args {
			f.Call.Args[i] = rewriteExpr(a, fn)
		}
	case *sqlparse.FromSelect:
		rewriteSelect(f.Sel, fn)
	}
	if sel.Where != nil {
		sel.Where = rewriteExpr(sel.Where, fn)
	}
	for i, e := range sel.GroupBy {
		sel.GroupBy[i] = rewriteExpr(e, fn)
	}
	for i := range sel.OrderBy {
		sel.OrderBy[i].Expr = rewriteExpr(sel.OrderBy[i].Expr, fn)
	}
}

func rewriteExpr(e sqlparse.Expr, fn func(*sqlparse.FuncCall) *sqlparse.FuncCall) sqlparse.Expr {
	switch e := e.(type) {
	case *sqlparse.FuncCall:
		for i, a := range e.Args {
			e.Args[i] = rewriteExpr(a, fn)
		}
		return fn(e)
	case *sqlparse.BinaryExpr:
		e.L = rewriteExpr(e.L, fn)
		e.R = rewriteExpr(e.R, fn)
		return e
	case *sqlparse.UnaryExpr:
		e.X = rewriteExpr(e.X, fn)
		return e
	case *sqlparse.IsNullExpr:
		e.X = rewriteExpr(e.X, fn)
		return e
	case *sqlparse.CastExpr:
		e.X = rewriteExpr(e.X, fn)
		return e
	case *sqlparse.Subquery:
		rewriteSelect(e.Sel, fn)
		return e
	default:
		return e
	}
}

// FindUDFCalls returns the names of user functions a query calls, in
// discovery order (projection, FROM, WHERE, subqueries). isUDF filters
// catalog functions from builtins.
func FindUDFCalls(sql string, isUDF func(string) bool) ([]string, error) {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sqlparse.Select)
	if !ok {
		return nil, nil
	}
	var out []string
	seen := map[string]bool{}
	rewriteSelect(sel, func(call *sqlparse.FuncCall) *sqlparse.FuncCall {
		lower := strings.ToLower(call.Name)
		if isUDF(call.Name) && !seen[lower] {
			seen[lower] = true
			out = append(out, call.Name)
		}
		return call
	})
	return out, nil
}

// FindLoopbackUDFs scans a UDF body for _conn.execute("...") loopback
// queries and returns the UDFs those queries call — the nested UDFs of
// paper §2.3 that must be imported and transformed alongside the main one.
func FindLoopbackUDFs(body string, isUDF func(string) bool) []string {
	var out []string
	seen := map[string]bool{}
	for _, q := range LoopbackQueries(body) {
		names, err := FindUDFCalls(q, isUDF)
		if err != nil {
			continue // not every embedded string is SQL
		}
		for _, n := range names {
			if !seen[strings.ToLower(n)] {
				seen[strings.ToLower(n)] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// LoopbackQueries extracts the string literals passed to _conn.execute in
// a UDF body. It tolerates the %-formatting placeholders of Listing 3 by
// substituting a neutral literal before parsing.
func LoopbackQueries(body string) []string {
	var out []string
	rest := body
	for {
		i := strings.Index(rest, "_conn.execute")
		if i < 0 {
			return out
		}
		rest = rest[i+len("_conn.execute"):]
		j := strings.IndexByte(rest, '(')
		if j < 0 {
			return out
		}
		lit, ok := firstStringLiteral(rest[j+1:])
		if !ok {
			continue
		}
		out = append(out, NeutralizePlaceholders(lit))
	}
}

// NeutralizePlaceholders replaces %-style placeholders with literals so the
// SQL parser can process format-string queries.
func NeutralizePlaceholders(sql string) string {
	replacer := strings.NewReplacer("%d", "0", "%s", "''", "%f", "0.0", "%g", "0.0", "%%", "%")
	return replacer.Replace(sql)
}

// firstStringLiteral pulls the first Python string literal (single, double
// or triple quoted) from s.
func firstStringLiteral(s string) (string, bool) {
	s = strings.TrimLeft(s, " \t\n\r")
	if s == "" {
		return "", false
	}
	for _, q := range []string{`"""`, `'''`, `"`, `'`} {
		if strings.HasPrefix(s, q) {
			rest := s[len(q):]
			end := strings.Index(rest, q)
			if end < 0 {
				return "", false
			}
			return rest[:end], true
		}
	}
	return "", false
}

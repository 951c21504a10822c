// Package transform implements devUDF's code transformations (paper §2.2,
// §2.3). They read the parsers' structure, never raw text: the SQL ones walk
// sqlparse's tree through sqlparse.Edit, the Python ones read PyLite's tokens
// (script.Lexer), which decode escapes, skip comments and delimit strings
// and indented blocks.
//
//   - WrapFunction makes a stored body a callable def, indenting each line
//     that does not begin inside a string token; BuildLocalScript adds the
//     Listing 2 prologue that loads input.bin and calls it.
//   - ExtractBody reverses that on export: the body is the indented block
//     of the top-level `def name`.
//   - RewriteToExtract replaces each call of the UDF, wherever the walk finds
//     it, by the table-valued sys_extract. Extract acts on a call in FROM or
//     a lone call in the select list, which moves into FROM. A call in WHERE
//     or HAVING is rewritten too, and the server refuses the result with its
//     "table-valued; use it in FROM" error.
//   - LocalCall admits the loopback queries whose result devUDF's local
//     _conn reproduces, and names their result column.
//   - FindUDFCalls lists the UDFs a query calls; LoopbackQueries and
//     FindLoopbackUDFs read the string literal after the tokens
//     `_conn . execute (` in a body. A query assembled in a variable or by
//     concatenation is not such a literal, and is not seen.
package transform

import (
	"cmp"
	"fmt"
	"regexp"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/script"
	"repro/internal/sqlparse"
	"repro/internal/transfer"
)

// WrapFunction synthesizes `def name(params):` around a stored body. A body
// that does not lex is indented line by line all the same, so Parse reports
// the lexer's error.
func WrapFunction(name string, params []string, body string) string {
	var sb strings.Builder
	sb.WriteString("def " + name + "(" + strings.Join(params, ", ") + "):\n")
	if strings.TrimSpace(body) == "" {
		sb.WriteString("    pass\n")
		return sb.String()
	}
	inString := stringLines(body)
	for i, ln := range strings.Split(body, "\n") {
		switch {
		case inString[i+1]:
			sb.WriteString(ln)
		case strings.TrimSpace(ln) != "":
			sb.WriteString("    " + ln)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// stringLines is the set of (1-based) lines that begin inside a string, or
// nil when src does not lex.
func stringLines(src string) map[int]bool {
	in, lx := map[int]bool{}, script.NewLexer(src)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil
		}
		for l := t.Line + 1; l <= t.EndLine; l++ {
			in[l] = true
		}
		if t.Kind == script.TokEOF {
			return in
		}
	}
}

// The marker comments bracket the function definition in a generated
// script, for the user editing it; ExtractBody does not need them.
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
	sb.WriteString("input_parameters = pickle.load(open('" + cmp.Or(info.InputFile, "./input.bin") + "', 'rb'))\n\n")
	args := make([]string, len(info.Params))
	for i, p := range info.Params {
		args[i] = fmt.Sprintf("input_parameters[%q]", p)
	}
	sb.WriteString("result = " + info.Name + "(" + strings.Join(args, ", ") + ")\n")
	fmt.Fprintf(&sb, "print('devUDF: %s returned', repr(result))\n", info.Name)
	return sb.String()
}

// ExtractBody reverses BuildLocalScript: it returns the body of the
// top-level `def name` in source — the only part committed back to the
// database on export. The body runs from the line after the def's header
// to the last statement of its indented block, plus the comment lines
// indented as deep as the block that follow it; trailing blank lines are
// dropped. Each line that does not begin inside a string loses at most the
// block's indentation; a blank one becomes empty.
func ExtractBody(source, name string) (string, error) {
	toks, err := script.NewLexer(source).Tokens()
	if err != nil {
		return "", err
	}
	// A top-level def is the one that starts its line.
	i := 0
	for i+1 < len(toks) && !(is(toks[i], script.TokKeyword, "def") && toks[i].Col == 1 && is(toks[i+1], script.TokName, name)) {
		i++
	}
	if i+1 == len(toks) {
		return "", core.Errorf(core.KindName, "could not find 'def %s(...)' in the source file", name)
	}
	for toks[i].Kind != script.TokNewline {
		i++
	}
	if toks[i+1].Kind != script.TokIndent {
		return "", core.Errorf(core.KindConstraint, "function %s has an empty body", name)
	}
	lines := strings.Split(source, "\n")
	indent := func(ln string) int { return len(ln) - len(strings.TrimLeft(ln, " \t")) }
	first, width := toks[i].Line+1, indent(lines[toks[i+1].Line-1])
	// Walk the block to its DEDENT, noting where its last statement ends.
	last, inString := first-1, map[int]bool{}
	i++ // the block's INDENT
	for depth := 1; depth > 0; {
		i++
		switch t := toks[i]; t.Kind {
		case script.TokIndent:
			depth++
		case script.TokDedent:
			depth--
		case script.TokNewline:
		default:
			last = max(t.Line, t.EndLine)
			for l := t.Line + 1; l <= t.EndLine; l++ {
				inString[l] = true
			}
		}
	}
	limit := len(lines) // the block runs to the end of the source
	if next := toks[i+1]; next.Kind != script.TokEOF {
		limit = next.Line - 1
	}
	for last < limit && (strings.TrimSpace(lines[last]) == "" || indent(lines[last]) >= width) {
		last++
	}
	body := make([]string, 0, last-first+1)
	for l := first; l <= last; l++ {
		ln := lines[l-1]
		switch {
		case inString[l]:
		case strings.TrimSpace(ln) == "":
			ln = ""
		default:
			ln = ln[min(width, indent(ln)):]
		}
		body = append(body, ln)
	}
	for len(body) > 0 && body[len(body)-1] == "" {
		body = body[:len(body)-1]
	}
	return strings.Join(body, "\n"), nil
}

// ExtractFuncName is the server-side table function the rewritten query
// calls instead of the UDF.
const ExtractFuncName = "sys_extract"

// RewriteToExtract replaces each call of udfName in the query with
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
	sqlparse.Edit(sel, func(e sqlparse.Expr) (sqlparse.Expr, bool) {
		call, ok := e.(*sqlparse.FuncCall)
		if !ok || !strings.EqualFold(call.Name, udfName) {
			return e, true
		}
		replaced++
		args := append([]sqlparse.Expr{
			&sqlparse.StrLit{Value: call.Name},
			&sqlparse.StrLit{Value: opts.Encode()},
		}, call.Args...)
		return &sqlparse.FuncCall{Name: ExtractFuncName, Args: args}, true
	})
	if replaced == 0 {
		return "", core.Errorf(core.KindName, "query does not call UDF %q", udfName)
	}
	// A lone projected call moves into FROM; each argument that reads the
	// source becomes a subquery over the original FROM and WHERE.
	if len(sel.Items) == 1 {
		if call, ok := sel.Items[0].Expr.(*sqlparse.FuncCall); ok && strings.EqualFold(call.Name, ExtractFuncName) {
			for i, a := range call.Args {
				if readsSource(a) {
					call.Args[i] = &sqlparse.Subquery{Sel: &sqlparse.Select{
						Items: []sqlparse.SelectItem{{Expr: a}},
						From:  sel.From,
						Where: sel.Where,
						Limit: -1,
					}}
				}
			}
			sel = &sqlparse.Select{
				Items: []sqlparse.SelectItem{{Star: true}},
				From:  &sqlparse.FromFunc{Call: call},
				Limit: -1,
			}
		}
	}
	return sqlparse.Format(sel), nil
}

// LocalCall checks that a loopback query returns udfName's output as it is
// — what devUDF's local _conn can reproduce by running its own copy of the
// UDF on the call's extracted inputs (§2.3) — and names that output as the
// server would. A lone projected call, SELECT udf(...) [AS name] [FROM ...
// WHERE ...], yields one column: the alias, otherwise the lower-cased
// function name. A table function read whole, SELECT * FROM udf(...),
// keeps its declared columns, and column is "". Any other shape computes
// on the UDF's output, so it is refused with a KindConstraint error that
// names the shape.
func LocalCall(sql, udfName string) (column string, err error) {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	sel, ok := st.(*sqlparse.Select)
	if !ok {
		return "", refuseLocal(udfName, "the query is not a SELECT")
	}
	calls := 0
	sqlparse.Edit(sel, func(e sqlparse.Expr) (sqlparse.Expr, bool) {
		if call, ok := e.(*sqlparse.FuncCall); ok && strings.EqualFold(call.Name, udfName) {
			calls++
		}
		return e, true
	})
	if calls > 1 {
		return "", refuseLocal(udfName, "the query calls it more than once")
	}
	clause := ""
	switch {
	case sel.Distinct:
		clause = "DISTINCT"
	case len(sel.GroupBy) > 0:
		clause = "GROUP BY"
	case sel.Having != nil:
		clause = "HAVING"
	case len(sel.OrderBy) > 0:
		clause = "ORDER BY"
	case sel.Limit >= 0:
		clause = "LIMIT"
	}
	if from, ok := sel.From.(*sqlparse.FromFunc); ok && strings.EqualFold(from.Call.Name, udfName) {
		if clause == "" && sel.Where != nil {
			clause = "WHERE"
		}
		switch {
		case clause != "":
			return "", refuseLocal(udfName, "its output passes through the query's "+clause)
		case len(sel.Items) != 1 || !sel.Items[0].Star:
			return "", refuseLocal(udfName, "the query selects expressions over its output")
		}
		return "", nil
	}
	if len(sel.Items) != 1 {
		return "", refuseLocal(udfName, "the query selects more than its output")
	}
	call, ok := sel.Items[0].Expr.(*sqlparse.FuncCall)
	switch {
	case !ok || !strings.EqualFold(call.Name, udfName):
		return "", refuseLocal(udfName, "the call is inside an expression")
	case clause != "":
		return "", refuseLocal(udfName, "its output passes through the query's "+clause)
	case slices.ContainsFunc(call.Args, sqlparse.HasAggregate):
		return "", refuseLocal(udfName, "an aggregate computes its argument")
	case sel.Items[0].Alias != "":
		return sel.Items[0].Alias, nil
	}
	return strings.ToLower(call.Name), nil
}

func refuseLocal(udfName, why string) error {
	return core.Errorf(core.KindConstraint,
		"a local run of %s cannot answer this query: %s (it answers SELECT %s(...) and SELECT * FROM %s(...))",
		udfName, why, udfName, udfName)
}

// readsSource reports whether e reads a column of the enclosing query; a
// subquery brings its own source.
func readsSource(e sqlparse.Expr) bool {
	found := false
	sqlparse.EditExpr(e, func(x sqlparse.Expr) (sqlparse.Expr, bool) {
		switch x.(type) {
		case *sqlparse.ColRef:
			found = true
		case *sqlparse.Subquery:
			return x, false
		}
		return x, !found
	})
	return found
}

// FindUDFCalls returns the names of user functions a query calls, each
// once, in the order sqlparse.Edit visits them. isUDF filters catalog
// functions from builtins.
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
	sqlparse.Edit(sel, func(e sqlparse.Expr) (sqlparse.Expr, bool) {
		if call, ok := e.(*sqlparse.FuncCall); ok && isUDF(call.Name) {
			out = addName(out, call.Name)
		}
		return e, true
	})
	return out, nil
}

// addName appends name to names unless it is there in any case.
func addName(names []string, name string) []string {
	if slices.ContainsFunc(names, func(n string) bool { return strings.EqualFold(n, name) }) {
		return names
	}
	return append(names, name)
}

// FindLoopbackUDFs returns the UDFs called by the loopback queries of a
// UDF body — the nested UDFs of paper §2.3 that must be imported and
// transformed alongside the main one.
func FindLoopbackUDFs(body string, isUDF func(string) bool) []string {
	var out []string
	for _, q := range LoopbackQueries(body) {
		names, _ := FindUDFCalls(q, isUDF) // not every embedded string is SQL
		for _, n := range names {
			out = addName(out, n)
		}
	}
	return out
}

// LoopbackQueries returns the string literal each `_conn.execute(` call of
// a UDF body opens with (adjacent literals joined, as the interpreter joins
// them), its %-placeholders neutralized. A body that does not lex has none.
func LoopbackQueries(body string) []string {
	toks, err := script.NewLexer(body).Tokens()
	if err != nil {
		return nil
	}
	var out []string
	for i := 0; i+4 < len(toks); i++ {
		if t := toks[i:]; !is(t[0], script.TokName, "_conn") || !is(t[1], script.TokOp, ".") ||
			!is(t[2], script.TokName, "execute") || !is(t[3], script.TokOp, "(") || t[4].Kind != script.TokString {
			continue
		}
		var q strings.Builder
		for j := i + 4; toks[j].Kind == script.TokString; j++ {
			q.WriteString(toks[j].Lit)
		}
		out = append(out, NeutralizePlaceholders(q.String()))
	}
	return out
}

// is reports whether t is of kind k and spelled lit.
func is(t script.Token, k script.TokKind, lit string) bool { return t.Kind == k && t.Lit == lit }

// conversion is one %-conversion of a Python format string:
// %[flags][width][.precision]type.
var conversion = regexp.MustCompile(`%[#0\- +]*(?:[0-9]+|\*)?(?:\.(?:[0-9]+|\*)?)?[diuoxXeEfFgGsra%]`)

// NeutralizePlaceholders replaces each %-conversion of a format-string
// query by a literal of its class, so the SQL parser can read it: an
// integer conversion (d i u o x X) by 0, a float one (e E f F g G) by 0.0, a
// string one (s r a) by the empty string literal. %% becomes %.
func NeutralizePlaceholders(sql string) string {
	return conversion.ReplaceAllStringFunc(sql, func(c string) string {
		switch c[len(c)-1] {
		case '%':
			return "%"
		case 's', 'r', 'a':
			return "''"
		case 'e', 'E', 'f', 'F', 'g', 'G':
			return "0.0"
		}
		return "0"
	})
}

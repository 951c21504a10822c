package sqlparse

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Format renders a statement back to SQL text. The output re-parses to an
// equivalent AST; devUDF's query rewriting (UDF call → extract function)
// round-trips through this printer.
func Format(st Statement) string {
	var sb strings.Builder
	formatStmt(&sb, st)
	return sb.String()
}

func formatStmt(sb *strings.Builder, st Statement) {
	switch st := st.(type) {
	case *CreateTable:
		sb.WriteString("CREATE TABLE ")
		sb.WriteString(quoteQualified(st.Name))
		sb.WriteString(" (")
		for i, col := range st.Schema {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(quoteIdent(col.Name))
			sb.WriteByte(' ')
			sb.WriteString(col.Type.String())
		}
		sb.WriteByte(')')
	case *DropTable:
		sb.WriteString("DROP TABLE ")
		sb.WriteString(quoteQualified(st.Name))
	case *CreateFunction:
		sb.WriteString("CREATE ")
		if st.OrReplace {
			sb.WriteString("OR REPLACE ")
		}
		sb.WriteString("FUNCTION ")
		sb.WriteString(quoteQualified(st.Name))
		sb.WriteByte('(')
		for i, p := range st.Params {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(quoteIdent(p.Name))
			sb.WriteByte(' ')
			sb.WriteString(p.Type.String())
		}
		sb.WriteString(") RETURNS ")
		if st.IsTable {
			sb.WriteString("TABLE(")
			for i, r := range st.Returns {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(quoteIdent(r.Name))
				sb.WriteByte(' ')
				sb.WriteString(r.Type.String())
			}
			sb.WriteByte(')')
		} else {
			sb.WriteString(st.Returns[0].Type.String())
		}
		sb.WriteString(" LANGUAGE ")
		sb.WriteString(st.Language)
		sb.WriteString(" {\n")
		sb.WriteString(indentLines(st.Body, "    "))
		sb.WriteString("\n}")
	case *DropFunction:
		sb.WriteString("DROP FUNCTION ")
		sb.WriteString(quoteQualified(st.Name))
	case *Insert:
		sb.WriteString("INSERT INTO ")
		sb.WriteString(quoteQualified(st.Table))
		sb.WriteString(" VALUES ")
		for i, row := range st.Rows {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteByte('(')
			for j, e := range row {
				if j > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(FormatExpr(e))
			}
			sb.WriteByte(')')
		}
	case *CopyInto:
		sb.WriteString("COPY INTO ")
		sb.WriteString(quoteQualified(st.Table))
		sb.WriteString(" FROM ")
		sb.WriteString(quoteSQLString(st.Path))
		if st.Header {
			sb.WriteString(" WITH HEADER")
		}
	case *Select:
		formatSelect(sb, st)
	default:
		fmt.Fprintf(sb, "/* unsupported %T */", st)
	}
}

func indentLines(s, prefix string) string {
	lines := strings.Split(s, "\n")
	for i, ln := range lines {
		if strings.TrimSpace(ln) != "" {
			lines[i] = prefix + ln
		}
	}
	return strings.Join(lines, "\n")
}

func formatSelect(sb *strings.Builder, sel *Select) {
	sb.WriteString("SELECT ")
	if sel.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, item := range sel.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if item.Star {
			sb.WriteByte('*')
			continue
		}
		sb.WriteString(FormatExpr(item.Expr))
		if item.Alias != "" {
			sb.WriteString(" AS ")
			sb.WriteString(quoteIdent(item.Alias))
		}
	}
	switch f := sel.From.(type) {
	case nil:
	case *FromTable:
		sb.WriteString(" FROM ")
		sb.WriteString(quoteQualified(f.Name))
		if f.Alias != "" {
			sb.WriteByte(' ')
			sb.WriteString(quoteIdent(f.Alias))
		}
	case *FromFunc:
		sb.WriteString(" FROM ")
		sb.WriteString(FormatExpr(f.Call))
		if f.Alias != "" {
			sb.WriteByte(' ')
			sb.WriteString(quoteIdent(f.Alias))
		}
	case *FromSelect:
		sb.WriteString(" FROM (")
		formatSelect(sb, f.Sel)
		sb.WriteByte(')')
		if f.Alias != "" {
			sb.WriteByte(' ')
			sb.WriteString(quoteIdent(f.Alias))
		}
	}
	if sel.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(FormatExpr(sel.Where))
	}
	if len(sel.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, e := range sel.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(FormatExpr(e))
		}
	}
	if sel.Having != nil {
		sb.WriteString(" HAVING ")
		sb.WriteString(FormatExpr(sel.Having))
	}
	if len(sel.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range sel.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(FormatExpr(o.Expr))
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if sel.Limit >= 0 {
		sb.WriteString(" LIMIT ")
		sb.WriteString(strconv.FormatInt(sel.Limit, 10))
	}
}

// FormatExpr renders an expression back to SQL text.
func FormatExpr(e Expr) string {
	switch e := e.(type) {
	case *ColRef:
		if e.Table != "" {
			return quoteIdent(e.Table) + "." + quoteIdent(e.Name)
		}
		return quoteIdent(e.Name)
	case *IntLit:
		if e.Value == math.MinInt64 {
			return "(-9223372036854775807 - 1)" // its magnitude is no INTEGER literal
		}
		return strconv.FormatInt(e.Value, 10)
	case *FloatLit:
		s := strconv.FormatFloat(e.Value, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case *StrLit:
		return quoteSQLString(e.Value)
	case *BoolLit:
		if e.Value {
			return "TRUE"
		}
		return "FALSE"
	case *NullLit:
		return "NULL"
	case *Placeholder:
		if e.Numbered {
			return "$" + strconv.Itoa(e.Index+1)
		}
		return "?"
	case *BinaryExpr:
		return "(" + FormatExpr(e.L) + " " + e.Op + " " + FormatExpr(e.R) + ")"
	case *UnaryExpr:
		if e.Op == "NOT" {
			return "(NOT " + FormatExpr(e.X) + ")"
		}
		return "(" + e.Op + FormatExpr(e.X) + ")"
	case *IsNullExpr:
		if e.Neg {
			return "(" + FormatExpr(e.X) + " IS NOT NULL)"
		}
		return "(" + FormatExpr(e.X) + " IS NULL)"
	case *FuncCall:
		var sb strings.Builder
		sb.WriteString(quoteQualified(e.Name))
		sb.WriteByte('(')
		if e.Star {
			sb.WriteByte('*')
		}
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(FormatExpr(a))
		}
		sb.WriteByte(')')
		return sb.String()
	case *Subquery:
		var sb strings.Builder
		sb.WriteByte('(')
		formatSelect(&sb, e.Sel)
		sb.WriteByte(')')
		return sb.String()
	case *CastExpr:
		return "CAST(" + FormatExpr(e.X) + " AS " + e.To.String() + ")"
	default:
		return fmt.Sprintf("/* unsupported %T */", e)
	}
}

func quoteSQLString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// plainIdent reports whether name lexes back as the same bare identifier;
// anything else (empty, odd characters, reserved words) must be printed as
// a "quoted" identifier or Format output would not reparse.
func plainIdent(name string) bool {
	if name == "" || reservedWords[strings.ToLower(name)] {
		return false
	}
	if !isSQLIdentStart(name[0]) {
		return false
	}
	for i := 1; i < len(name); i++ {
		if !isSQLIdentCont(name[i]) {
			return false
		}
	}
	return true
}

func quoteIdent(name string) string {
	if plainIdent(name) {
		return name
	}
	return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
}

// quoteQualified quotes each part of a possibly schema-qualified name
// ("sys.functions").
func quoteQualified(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return quoteIdent(name[:i]) + "." + quoteIdent(name[i+1:])
	}
	return quoteIdent(name)
}

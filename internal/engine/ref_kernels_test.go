package engine

// The reference kernels: the engine's original row-at-a-time
// implementation of operators, grouping keys, aggregates and
// materialization, kept test-side as the executable semantic
// specification of internal/engine/vec. refSelect (ref_select_test.go)
// drives them over whole queries; the kernel agreement tests and the
// scalar-reference benchmark legs call them directly.

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/storage"
)

// aligned iterates two columns with length-1 broadcast.
func aligned(l, r *storage.Column) (int, func(i int) (int, int), error) {
	ln, rn := l.Len(), r.Len()
	switch {
	case ln == rn:
		return ln, func(i int) (int, int) { return i, i }, nil
	case ln == 1:
		return rn, func(i int) (int, int) { return 0, i }, nil
	case rn == 1:
		return ln, func(i int) (int, int) { return i, 0 }, nil
	default:
		return 0, nil, core.Errorf(core.KindConstraint,
			"column length mismatch: %d vs %d", ln, rn)
	}
}

func scalarEvalUnary(op string, x *storage.Column) (*storage.Column, error) {
	switch op {
	case "-":
		out := storage.NewColumn("", x.Typ)
		for i := 0; i < x.Len(); i++ {
			if x.IsNull(i) {
				out.AppendNull()
				continue
			}
			switch x.Typ {
			case storage.TInt:
				out.AppendInt(-x.Ints[i])
			case storage.TFloat:
				out.AppendFloat(-x.Flts[i])
			default:
				return nil, core.Errorf(core.KindType, "cannot negate %s", x.Typ)
			}
		}
		return out, nil
	case "NOT":
		out := storage.NewColumn("", storage.TBool)
		for i := 0; i < x.Len(); i++ {
			if x.IsNull(i) {
				out.AppendNull()
				continue
			}
			out.AppendBool(!truthyAt(x, i))
		}
		return out, nil
	default:
		return nil, core.Errorf(core.KindSyntax, "unsupported unary operator %q", op)
	}
}

func scalarEvalBinary(op string, l, r *storage.Column) (*storage.Column, error) {
	n, at, err := aligned(l, r)
	if err != nil {
		return nil, err
	}
	switch op {
	case "+", "-", "*", "/", "%":
		return scalarEvalArith(op, l, r, n, at)
	case "=", "<>", "<", "<=", ">", ">=":
		return scalarEvalCompare(op, l, r, n, at)
	case "AND", "OR":
		out := storage.NewColumn("", storage.TBool)
		for i := 0; i < n; i++ {
			li, ri := at(i)
			lv, rv := truthyAt(l, li), truthyAt(r, ri)
			if op == "AND" {
				out.AppendBool(lv && rv)
			} else {
				out.AppendBool(lv || rv)
			}
		}
		return out, nil
	case "||":
		out := storage.NewColumn("", storage.TStr)
		for i := 0; i < n; i++ {
			li, ri := at(i)
			if l.IsNull(li) || r.IsNull(ri) {
				out.AppendNull()
				continue
			}
			out.AppendStr(l.FormatValue(li) + r.FormatValue(ri))
		}
		return out, nil
	default:
		return nil, core.Errorf(core.KindSyntax, "unsupported operator %q", op)
	}
}

func scalarEvalArith(op string, l, r *storage.Column, n int, at func(int) (int, int)) (*storage.Column, error) {
	bothInt := l.Typ == storage.TInt && r.Typ == storage.TInt
	if bothInt {
		out := storage.NewColumn("", storage.TInt)
		for i := 0; i < n; i++ {
			li, ri := at(i)
			if l.IsNull(li) || r.IsNull(ri) {
				out.AppendNull()
				continue
			}
			a, b := l.Ints[li], r.Ints[ri]
			switch op {
			case "+":
				out.AppendInt(a + b)
			case "-":
				out.AppendInt(a - b)
			case "*":
				out.AppendInt(a * b)
			case "/":
				if b == 0 {
					return nil, core.Errorf(core.KindRuntime, "division by zero")
				}
				out.AppendInt(a / b)
			case "%":
				if b == 0 {
					return nil, core.Errorf(core.KindRuntime, "division by zero")
				}
				out.AppendInt(a % b)
			}
		}
		return out, nil
	}
	out := storage.NewColumn("", storage.TFloat)
	for i := 0; i < n; i++ {
		li, ri := at(i)
		if l.IsNull(li) || r.IsNull(ri) {
			out.AppendNull()
			continue
		}
		a, aok := numericAt(l, li)
		b, bok := numericAt(r, ri)
		if !aok || !bok {
			return nil, core.Errorf(core.KindType,
				"cannot apply %q to %s and %s", op, l.Typ, r.Typ)
		}
		switch op {
		case "+":
			out.AppendFloat(a + b)
		case "-":
			out.AppendFloat(a - b)
		case "*":
			out.AppendFloat(a * b)
		case "/":
			if b == 0 {
				return nil, core.Errorf(core.KindRuntime, "division by zero")
			}
			out.AppendFloat(a / b)
		case "%":
			if b == 0 {
				return nil, core.Errorf(core.KindRuntime, "division by zero")
			}
			out.AppendFloat(math.Mod(a, b))
		}
	}
	return out, nil
}

func scalarEvalCompare(op string, l, r *storage.Column, n int, at func(int) (int, int)) (*storage.Column, error) {
	out := storage.NewColumn("", storage.TBool)
	for i := 0; i < n; i++ {
		li, ri := at(i)
		if l.IsNull(li) || r.IsNull(ri) {
			out.AppendNull() // SQL three-valued: comparisons with NULL are NULL
			continue
		}
		cmp, err := compareAt(l, li, r, ri)
		if err != nil {
			return nil, err
		}
		var v bool
		switch op {
		case "=":
			v = cmp == 0
		case "<>":
			v = cmp != 0
		case "<":
			v = cmp < 0
		case "<=":
			v = cmp <= 0
		case ">":
			v = cmp > 0
		case ">=":
			v = cmp >= 0
		}
		out.AppendBool(v)
	}
	return out, nil
}

// writeKeyCell appends one injective key cell: length-prefixed so
// separator bytes inside string values cannot collide, and blob CONTENT
// rather than FormatValue's "<blob NB>" (the historical length-only
// blob key collapsed distinct same-length blobs — a defect the typed
// hasher fixed; the reference keys match it).
func writeKeyCell(sb *strings.Builder, c *storage.Column, i int) {
	if c.IsNull(i) {
		sb.WriteString("\x00N")
		return
	}
	v := c.FormatValue(i)
	if c.Typ == storage.TBlob {
		v = string(c.Blobs[i])
	}
	sb.WriteString(strconv.Itoa(len(v)))
	sb.WriteByte(':')
	sb.WriteString(v)
}

// scalarGroupRows is the historical GROUP BY keying: every row formatted
// through a strings.Builder into a map key.
func scalarGroupRows(keyCols []*storage.Column, n int) [][]int32 {
	index := map[string]int{}
	var groups [][]int32
	for i := 0; i < n; i++ {
		var sb strings.Builder
		for _, kc := range keyCols {
			writeKeyCell(&sb, kc, i)
			sb.WriteByte('\x01')
		}
		k := sb.String()
		gi, ok := index[k]
		if !ok {
			gi = len(groups)
			index[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], int32(i))
	}
	return groups
}

// scalarAggregateOver computes one aggregate call's reduction with the
// historical per-row numericAt/compareAt loops over an evaluated column.
func scalarAggregateOver(name string, col *storage.Column, countStar bool, n int) (*storage.Column, error) {
	if name == "count" && countStar {
		out := storage.NewColumn("", storage.TInt)
		out.AppendInt(int64(n))
		return out, nil
	}
	switch name {
	case "count":
		cnt := int64(0)
		for i := 0; i < col.Len(); i++ {
			if !col.IsNull(i) {
				cnt++
			}
		}
		out := storage.NewColumn("", storage.TInt)
		out.AppendInt(cnt)
		return out, nil
	case "sum", "avg":
		sum := 0.0
		cnt := 0
		allInt := col.Typ == storage.TInt
		var isum int64
		for i := 0; i < col.Len(); i++ {
			if col.IsNull(i) {
				continue
			}
			v, ok := numericAt(col, i)
			if !ok {
				return nil, core.Errorf(core.KindType, "%s needs numeric input", strings.ToUpper(name))
			}
			sum += v
			if allInt {
				isum += col.Ints[i]
			}
			cnt++
		}
		if name == "avg" {
			out := storage.NewColumn("", storage.TFloat)
			if cnt == 0 {
				out.AppendNull()
			} else {
				out.AppendFloat(sum / float64(cnt))
			}
			return out, nil
		}
		if allInt {
			out := storage.NewColumn("", storage.TInt)
			if cnt == 0 {
				out.AppendNull()
			} else {
				out.AppendInt(isum)
			}
			return out, nil
		}
		out := storage.NewColumn("", storage.TFloat)
		if cnt == 0 {
			out.AppendNull()
		} else {
			out.AppendFloat(sum)
		}
		return out, nil
	case "min", "max":
		out := storage.NewColumn("", col.Typ)
		best := -1
		for i := 0; i < col.Len(); i++ {
			if col.IsNull(i) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			cmp, err := compareAt(col, i, col, best)
			if err != nil {
				return nil, err
			}
			if (name == "min" && cmp < 0) || (name == "max" && cmp > 0) {
				best = i
			}
		}
		if best < 0 {
			out.AppendNull()
		} else {
			if err := out.AppendValue(col.Value(best)); err != nil {
				return nil, err
			}
		}
		return out, nil
	default:
		return nil, core.Errorf(core.KindName, "unknown aggregate %s", name)
	}
}

// scalarGatherTable reproduces the historical materialization strategy:
// append-grown columns filled row-at-a-time with per-row null checks —
// what WHERE and LIMIT paid before selection vectors.
func scalarGatherTable(t *storage.Table, idx []int32) *storage.Table {
	out := &storage.Table{Name: t.Name}
	for _, col := range t.Cols {
		g := storage.NewColumn(col.Name, col.Typ)
		for _, i := range idx {
			if col.IsNull(int(i)) {
				g.AppendNull()
				continue
			}
			switch col.Typ {
			case storage.TInt:
				g.AppendInt(col.Ints[i])
			case storage.TFloat:
				g.AppendFloat(col.Flts[i])
			case storage.TStr:
				g.AppendStr(col.Strs[i])
			case storage.TBool:
				g.AppendBool(col.Bools[i])
			case storage.TBlob:
				g.AppendBlob(col.Blobs[i])
			}
		}
		out.Cols = append(out.Cols, g)
	}
	return out
}

// scalarDistinctIdx is the historical DISTINCT keying over formatted
// rows, returning the first-occurrence indexes.
func scalarDistinctIdx(t *storage.Table) []int32 {
	seen := map[string]bool{}
	var idx []int32
	for r := 0; r < t.NumRows(); r++ {
		var sb strings.Builder
		for _, col := range t.Cols {
			writeKeyCell(&sb, col, r)
			sb.WriteByte('\x01')
		}
		k := sb.String()
		if !seen[k] {
			seen[k] = true
			idx = append(idx, int32(r))
		}
	}
	return idx
}

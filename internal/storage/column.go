package storage

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/core"
)

// Column is a typed value vector with a validity (null) bitmap. Exactly one
// of the typed slices is populated, matching Typ — the operator-at-a-time
// engine passes these whole vectors to UDFs, which is the MonetDB execution
// model the paper relies on.
type Column struct {
	Name  string
	Typ   Type
	Ints  []int64
	Flts  []float64
	Strs  []string
	Bools []bool
	Blobs [][]byte
	Nulls []bool // parallel validity; nil means no nulls
}

// NewColumn creates an empty column of the given type.
func NewColumn(name string, t Type) *Column { return &Column{Name: name, Typ: t} }

// Len returns the number of rows.
func (c *Column) Len() int {
	switch c.Typ {
	case TInt:
		return len(c.Ints)
	case TFloat:
		return len(c.Flts)
	case TStr:
		return len(c.Strs)
	case TBool:
		return len(c.Bools)
	case TBlob:
		return len(c.Blobs)
	default:
		return 0
	}
}

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool { return c.Nulls != nil && c.Nulls[i] }

func (c *Column) growNulls() {
	if c.Nulls != nil {
		c.Nulls = append(c.Nulls, false)
	}
}

// AppendInt appends an integer row.
func (c *Column) AppendInt(v int64) { c.Ints = append(c.Ints, v); c.growNulls() }

// AppendFloat appends a float row.
func (c *Column) AppendFloat(v float64) { c.Flts = append(c.Flts, v); c.growNulls() }

// AppendStr appends a string row.
func (c *Column) AppendStr(v string) { c.Strs = append(c.Strs, v); c.growNulls() }

// AppendBool appends a boolean row.
func (c *Column) AppendBool(v bool) { c.Bools = append(c.Bools, v); c.growNulls() }

// AppendBlob appends a blob row.
func (c *Column) AppendBlob(v []byte) { c.Blobs = append(c.Blobs, v); c.growNulls() }

// AppendNull appends a NULL row. The bitmap it may have to create gets the
// value vector's capacity, so rows a caller has Reserved stay free of
// reallocation when some of them turn out NULL.
func (c *Column) AppendNull() {
	var room int
	switch c.Typ {
	case TInt:
		c.Ints = append(c.Ints, 0)
		room = cap(c.Ints)
	case TFloat:
		c.Flts = append(c.Flts, 0)
		room = cap(c.Flts)
	case TStr:
		c.Strs = append(c.Strs, "")
		room = cap(c.Strs)
	case TBool:
		c.Bools = append(c.Bools, false)
		room = cap(c.Bools)
	case TBlob:
		c.Blobs = append(c.Blobs, nil)
		room = cap(c.Blobs)
	}
	if c.Nulls == nil {
		c.Nulls = make([]bool, c.Len(), room)
	} else {
		c.Nulls = append(c.Nulls, false)
	}
	c.Nulls[c.Len()-1] = true
}

// Value returns row i as a Go value (nil for NULL).
func (c *Column) Value(i int) any {
	if c.IsNull(i) {
		return nil
	}
	switch c.Typ {
	case TInt:
		return c.Ints[i]
	case TFloat:
		return c.Flts[i]
	case TStr:
		return c.Strs[i]
	case TBool:
		return c.Bools[i]
	case TBlob:
		return c.Blobs[i]
	default:
		return nil
	}
}

// AppendValue appends a Go value with coercion to the column type. nil
// appends NULL.
func (c *Column) AppendValue(v any) error {
	switch v := v.(type) {
	case nil:
		c.AppendNull()
		return nil
	case int64:
		return c.appendInt(v)
	case int:
		if c.Typ == TInt || c.Typ == TFloat {
			return c.appendInt(int64(v))
		}
	case float64:
		return c.appendFloat(v)
	case string:
		return c.appendStr(v)
	case bool:
		return c.appendBool(v)
	case []byte:
		return c.appendBlob(v)
	}
	return coerceErr(v, c.Typ)
}

// AppendCell appends row i of src, NULL included, with AppendValue's
// coercions when the types differ — the copy of one cell between columns,
// without boxing it on the way.
func (c *Column) AppendCell(src *Column, i int) error {
	if src.IsNull(i) {
		c.AppendNull()
		return nil
	}
	switch src.Typ {
	case TInt:
		return c.appendInt(src.Ints[i])
	case TFloat:
		return c.appendFloat(src.Flts[i])
	case TStr:
		return c.appendStr(src.Strs[i])
	case TBool:
		return c.appendBool(src.Bools[i])
	default:
		return c.appendBlob(src.Blobs[i])
	}
}

// The five coercers below are the one conversion matrix, a source type
// each: what AppendValue does with a Go value and AppendCell with a cell.

func (c *Column) appendInt(v int64) error {
	switch c.Typ {
	case TInt:
		c.AppendInt(v)
	case TFloat:
		c.AppendFloat(float64(v))
	case TStr:
		c.AppendStr(strconv.FormatInt(v, 10))
	case TBool:
		c.AppendBool(v != 0)
	default:
		return coerceErr(v, c.Typ)
	}
	return nil
}

func (c *Column) appendFloat(v float64) error {
	switch c.Typ {
	case TInt:
		c.AppendInt(int64(v))
	case TFloat:
		c.AppendFloat(v)
	case TStr:
		c.AppendStr(strconv.FormatFloat(v, 'g', -1, 64))
	default:
		return coerceErr(v, c.Typ)
	}
	return nil
}

func (c *Column) appendStr(v string) error {
	switch c.Typ {
	case TInt:
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return core.Errorf(core.KindType, "cannot convert %q to INTEGER", v)
		}
		c.AppendInt(n)
	case TFloat:
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return core.Errorf(core.KindType, "cannot convert %q to DOUBLE", v)
		}
		c.AppendFloat(f)
	case TStr:
		c.AppendStr(v)
	case TBlob:
		c.AppendBlob([]byte(v))
	default:
		return coerceErr(v, c.Typ)
	}
	return nil
}

func (c *Column) appendBool(v bool) error {
	switch c.Typ {
	case TInt:
		if v {
			c.AppendInt(1)
		} else {
			c.AppendInt(0)
		}
	case TStr:
		c.AppendStr(strconv.FormatBool(v))
	case TBool:
		c.AppendBool(v)
	default:
		return coerceErr(v, c.Typ)
	}
	return nil
}

func (c *Column) appendBlob(v []byte) error {
	if c.Typ != TBlob {
		return coerceErr(v, c.Typ)
	}
	c.AppendBlob(v)
	return nil
}

func coerceErr(v any, t Type) error {
	return core.Errorf(core.KindType, "cannot store %T in %s column", v, t)
}

// Vector returns the column's backing typed slice ([]int64, []float64,
// []string, []bool or [][]byte) without copying: what a GO UDF receives.
func (c *Column) Vector() any {
	switch c.Typ {
	case TInt:
		return c.Ints
	case TFloat:
		return c.Flts
	case TStr:
		return c.Strs
	case TBool:
		return c.Bools
	default:
		return c.Blobs
	}
}

// ColumnOver wraps a caller-owned typed slice (see Vector) in a column
// without copying: what a GO UDF returns. Any other type is the caller's
// bug.
func ColumnOver(name string, vec any) *Column {
	switch v := vec.(type) {
	case []int64:
		return &Column{Name: name, Typ: TInt, Ints: v}
	case []float64:
		return &Column{Name: name, Typ: TFloat, Flts: v}
	case []string:
		return &Column{Name: name, Typ: TStr, Strs: v}
	case []bool:
		return &Column{Name: name, Typ: TBool, Bools: v}
	case [][]byte:
		return &Column{Name: name, Typ: TBlob, Blobs: v}
	}
	panic(fmt.Sprintf("storage.ColumnOver: %T is not a column vector", vec))
}

// BindValue builds a length-1 column from a Go bind argument, inferring
// the SQL type from the Go type: int/int32/int64 → INTEGER, float32/
// float64 → DOUBLE, string → STRING, bool → BOOLEAN, []byte → BLOB. nil
// binds NULL. The statement surfaces (engine Stmt binding and the wire
// MsgExecStmt arg encoding) apply it through BindValues, their one typing
// rule for an argument list.
func BindValue(v any) (*Column, error) {
	switch v := v.(type) {
	case nil:
		col := NewColumn("", TStr)
		col.AppendNull()
		return col, nil
	case int64:
		col := NewColumn("", TInt)
		col.AppendInt(v)
		return col, nil
	case int:
		col := NewColumn("", TInt)
		col.AppendInt(int64(v))
		return col, nil
	case int32:
		col := NewColumn("", TInt)
		col.AppendInt(int64(v))
		return col, nil
	case float64:
		col := NewColumn("", TFloat)
		col.AppendFloat(v)
		return col, nil
	case float32:
		col := NewColumn("", TFloat)
		col.AppendFloat(float64(v))
		return col, nil
	case string:
		col := NewColumn("", TStr)
		col.AppendStr(v)
		return col, nil
	case bool:
		col := NewColumn("", TBool)
		col.AppendBool(v)
		return col, nil
	case []byte:
		col := NewColumn("", TBlob)
		// copy: the caller may reuse its buffer between executions, and a
		// prepared INSERT stores the bound value (database/sql semantics)
		col.AppendBlob(append([]byte(nil), v...))
		return col, nil
	default:
		return nil, core.Errorf(core.KindType, "cannot bind a %T parameter", v)
	}
}

// BindValues is BindValue over a statement's argument list; an argument it
// cannot bind fails the list with its 1-based position.
func BindValues(args []any) ([]*Column, error) {
	cols := make([]*Column, len(args))
	for i, v := range args {
		col, err := BindValue(v)
		if err != nil {
			return nil, core.Wrapf(core.KindType, err, "parameter %d: %v", i+1, err)
		}
		cols[i] = col
	}
	return cols, nil
}

// Reserve grows the column's capacity so that n more rows can be appended
// without reallocation. Call it wherever the result length is known before
// an append loop.
func (c *Column) Reserve(n int) {
	switch c.Typ {
	case TInt:
		if cap(c.Ints)-len(c.Ints) < n {
			c.Ints = append(make([]int64, 0, len(c.Ints)+n), c.Ints...)
		}
	case TFloat:
		if cap(c.Flts)-len(c.Flts) < n {
			c.Flts = append(make([]float64, 0, len(c.Flts)+n), c.Flts...)
		}
	case TStr:
		if cap(c.Strs)-len(c.Strs) < n {
			c.Strs = append(make([]string, 0, len(c.Strs)+n), c.Strs...)
		}
	case TBool:
		if cap(c.Bools)-len(c.Bools) < n {
			c.Bools = append(make([]bool, 0, len(c.Bools)+n), c.Bools...)
		}
	case TBlob:
		if cap(c.Blobs)-len(c.Blobs) < n {
			c.Blobs = append(make([][]byte, 0, len(c.Blobs)+n), c.Blobs...)
		}
	}
	if c.Nulls != nil && cap(c.Nulls)-len(c.Nulls) < n {
		c.Nulls = append(make([]bool, 0, len(c.Nulls)+n), c.Nulls...)
	}
}

// Truncate drops every row past n (no-op when the column is already at or
// below n rows). Blob and string tails are nilled out so the backing arrays
// do not pin dropped payloads.
func (c *Column) Truncate(n int) {
	if n < 0 || n >= c.Len() {
		return
	}
	switch c.Typ {
	case TInt:
		c.Ints = c.Ints[:n]
	case TFloat:
		c.Flts = c.Flts[:n]
	case TStr:
		for i := n; i < len(c.Strs); i++ {
			c.Strs[i] = ""
		}
		c.Strs = c.Strs[:n]
	case TBool:
		c.Bools = c.Bools[:n]
	case TBlob:
		for i := n; i < len(c.Blobs); i++ {
			c.Blobs[i] = nil
		}
		c.Blobs = c.Blobs[:n]
	}
	if c.Nulls != nil {
		c.Nulls = c.Nulls[:n]
	}
}

// Clone deep-copies the column.
func (c *Column) Clone() *Column {
	out := &Column{Name: c.Name, Typ: c.Typ}
	out.Ints = append([]int64(nil), c.Ints...)
	out.Flts = append([]float64(nil), c.Flts...)
	out.Strs = append([]string(nil), c.Strs...)
	out.Bools = append([]bool(nil), c.Bools...)
	if c.Blobs != nil {
		out.Blobs = make([][]byte, len(c.Blobs))
		for i, b := range c.Blobs {
			out.Blobs[i] = append([]byte(nil), b...)
		}
	}
	out.Nulls = append([]bool(nil), c.Nulls...)
	return out
}

// gatherInto is the shared typed gather: out's buffers reused when large
// enough, branch-free value loops, and a validity bitmap only when a
// gathered row is actually NULL.
func gatherInto[I int | int32](out, c *Column, idx []I) *Column {
	out.Name, out.Typ = c.Name, c.Typ
	switch c.Typ {
	case TInt:
		out.Ints = gatherVals(out.Ints, c.Ints, idx)
	case TFloat:
		out.Flts = gatherVals(out.Flts, c.Flts, idx)
	case TStr:
		out.Strs = gatherVals(out.Strs, c.Strs, idx)
	case TBool:
		out.Bools = gatherVals(out.Bools, c.Bools, idx)
	case TBlob:
		out.Blobs = gatherVals(out.Blobs, c.Blobs, idx)
	}
	var nulls []bool
	if c.Nulls != nil {
		nulls = gatherVals(out.Nulls, c.Nulls, idx)
		if !slices.Contains(nulls, true) {
			nulls = nil
		}
	}
	out.Nulls = nulls
	return out
}

func gatherVals[T any, I int | int32](dst, src []T, idx []I) []T {
	if dst == nil || cap(dst) < len(idx) {
		dst = make([]T, len(idx))
	}
	dst = dst[:len(idx)]
	for o, i := range idx {
		dst[o] = src[i]
	}
	return dst
}

// Gather returns a new column holding the rows at the given indexes, in
// order. Used by filters, sampling and ORDER BY.
func (c *Column) Gather(idx []int) *Column { return gatherInto(&Column{}, c, idx) }

// GatherSel is Gather over an int32 selection vector — the filter path's
// materialization step, deferred until a result column is actually built.
func (c *Column) GatherSel(sel []int32) *Column { return gatherInto(&Column{}, c, sel) }

// GatherInto is GatherSel into dst, a column the caller owns and reuses:
// each of dst's buffers that holds len(sel) rows is overwritten in place,
// so a morsel-sized gather allocates once per buffer, not once per morsel.
func (c *Column) GatherInto(dst *Column, sel []int32) { gatherInto(dst, c, sel) }

// BroadcastTo replicates a length-1 column to n rows with pre-sized
// buffers — the projection/grouping broadcast that previously gathered
// through an n-long zero index slice.
func (c *Column) BroadcastTo(n int) *Column {
	out := &Column{Name: c.Name, Typ: c.Typ}
	switch c.Typ {
	case TInt:
		out.Ints = make([]int64, n)
		for i := range out.Ints {
			out.Ints[i] = c.Ints[0]
		}
	case TFloat:
		out.Flts = make([]float64, n)
		for i := range out.Flts {
			out.Flts[i] = c.Flts[0]
		}
	case TStr:
		out.Strs = make([]string, n)
		for i := range out.Strs {
			out.Strs[i] = c.Strs[0]
		}
	case TBool:
		out.Bools = make([]bool, n)
		for i := range out.Bools {
			out.Bools[i] = c.Bools[0]
		}
	case TBlob:
		out.Blobs = make([][]byte, n)
		for i := range out.Blobs {
			out.Blobs[i] = c.Blobs[0]
		}
	}
	if c.Nulls != nil && c.Nulls[0] {
		out.Nulls = make([]bool, n)
		for i := range out.Nulls {
			out.Nulls[i] = true
		}
	}
	return out
}

// AppendAll bulk-appends every row of o (same type) to c — the morsel
// result stitcher, and Table.AppendTable column by column. A bitmap appears
// on c as soon as either side has one.
func (c *Column) AppendAll(o *Column) error {
	if o.Typ != c.Typ {
		return core.Errorf(core.KindConstraint,
			"column %s: type mismatch appending %s to %s", c.Name, o.Typ, c.Typ)
	}
	if o.Nulls != nil && c.Nulls == nil {
		c.Nulls = make([]bool, c.Len())
	}
	switch c.Typ {
	case TInt:
		c.Ints = append(c.Ints, o.Ints...)
	case TFloat:
		c.Flts = append(c.Flts, o.Flts...)
	case TStr:
		c.Strs = append(c.Strs, o.Strs...)
	case TBool:
		c.Bools = append(c.Bools, o.Bools...)
	case TBlob:
		c.Blobs = append(c.Blobs, o.Blobs...)
	}
	if c.Nulls != nil {
		if o.Nulls != nil {
			c.Nulls = append(c.Nulls, o.Nulls...)
		} else {
			c.Nulls = append(c.Nulls, make([]bool, o.Len())...)
		}
	}
	return nil
}

// Slice returns a view of rows [lo, hi) aliasing c's backing arrays —
// the view must not be appended to or mutated.
func (c *Column) Slice(lo, hi int) *Column {
	sc := &Column{Name: c.Name, Typ: c.Typ}
	switch c.Typ {
	case TInt:
		sc.Ints = c.Ints[lo:hi]
	case TFloat:
		sc.Flts = c.Flts[lo:hi]
	case TStr:
		sc.Strs = c.Strs[lo:hi]
	case TBool:
		sc.Bools = c.Bools[lo:hi]
	case TBlob:
		sc.Blobs = c.Blobs[lo:hi]
	}
	if c.Nulls != nil {
		sc.Nulls = c.Nulls[lo:hi]
	}
	return sc
}

// FormatValue renders row i the way the SQL shell prints it.
func (c *Column) FormatValue(i int) string {
	if c.IsNull(i) {
		return "NULL"
	}
	switch c.Typ {
	case TInt:
		return strconv.FormatInt(c.Ints[i], 10)
	case TFloat:
		return strconv.FormatFloat(c.Flts[i], 'g', -1, 64)
	case TStr:
		return c.Strs[i]
	case TBool:
		return strconv.FormatBool(c.Bools[i])
	case TBlob:
		return fmt.Sprintf("<blob %dB>", len(c.Blobs[i]))
	default:
		return "?"
	}
}

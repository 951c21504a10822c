package pyrt

import (
	"repro/internal/core"
	"repro/internal/script"
	"repro/internal/storage"
)

// ColumnToValue converts a column to the UDF-facing representation per
// MonetDB/Python's convention: arguments deriving from table data arrive
// as lists (isColumn true), constant expressions as bare scalars — even
// when the column holds a single row. An INTEGER or DOUBLE column is not
// converted at all: the list wraps the column's own vector and null mask,
// reads them in place and copies them before the UDF's first write to it.
func ColumnToValue(col *storage.Column, isColumn bool) script.Value {
	if !isColumn {
		if col.Len() == 0 {
			return script.None
		}
		return CellToValue(col, 0)
	}
	switch col.Typ {
	case storage.TInt:
		return script.NewIntList(col.Ints, col.Nulls)
	case storage.TFloat:
		return script.NewFloatList(col.Flts, col.Nulls)
	}
	items := make([]script.Value, col.Len())
	for i := range items {
		items[i] = CellToValue(col, i)
	}
	return script.NewList(items...)
}

// CellToValue converts row i of a column to a script value (NULL → None).
func CellToValue(col *storage.Column, i int) script.Value {
	if col.IsNull(i) {
		return script.None
	}
	switch col.Typ {
	case storage.TInt:
		return script.IntVal(col.Ints[i])
	case storage.TFloat:
		return script.FloatVal(col.Flts[i])
	case storage.TStr:
		return script.StrVal(col.Strs[i])
	case storage.TBool:
		return script.BoolVal(col.Bools[i])
	case storage.TBlob:
		return script.BytesVal(col.Blobs[i])
	default:
		return script.None
	}
}

// ValueToColumn converts a UDF result into a typed column: a sequence
// becomes the column's rows, anything else a single row. A list the UDF
// built from numbers and a range are taken as the vector they already are.
// Cardinality validation (a scalar UDF over n rows must return n or 1
// values) is the engine's job, not the conversion's.
func ValueToColumn(v script.Value, name string, typ storage.Type) (*storage.Column, error) {
	col := storage.NewColumn(name, typ)
	if r, ok := v.(script.RangeVal); ok {
		l, err := r.List()
		if err != nil {
			return nil, err
		}
		v = l
	}
	items := []script.Value{v}
	switch v := v.(type) {
	case *script.ListVal:
		if numbersToColumn(col, v) {
			return col, nil
		}
		items = v.Boxed()
	case *script.TupleVal:
		items = v.Items
	}
	for _, it := range items {
		if err := AppendScriptValue(col, it); err != nil {
			return nil, err
		}
	}
	return col, nil
}

// numbersToColumn fills an INTEGER or DOUBLE column from a list of unboxed
// ints or floats under AppendScriptValue's coercions (a float truncates
// into an INTEGER), and reports whether it could.
func numbersToColumn(col *storage.Column, l *script.ListVal) bool {
	if col.Typ != storage.TInt && col.Typ != storage.TFloat {
		return false
	}
	ints, flts, nulls := l.Numbers()
	switch {
	case ints != nil && col.Typ == storage.TFloat:
		flts = make([]float64, len(ints))
		for i, n := range ints {
			flts[i] = float64(n)
		}
	case flts != nil && col.Typ == storage.TInt:
		ints = make([]int64, len(flts))
		for i, f := range flts {
			ints[i] = int64(f)
		}
	case ints == nil && flts == nil:
		return false
	}
	if col.Typ == storage.TInt {
		col.Ints = ints
	} else {
		col.Flts = flts
	}
	col.Nulls = nulls
	return true
}

// AppendScriptValue appends one script value to a column with the
// interpreter's coercion rules (None → NULL, float → int truncation,
// anything → str).
func AppendScriptValue(col *storage.Column, v script.Value) error {
	if _, ok := v.(script.NoneVal); ok {
		col.AppendNull()
		return nil
	}
	switch col.Typ {
	case storage.TInt:
		if n, ok := script.AsInt(v); ok {
			col.AppendInt(n)
			return nil
		}
		if f, ok := v.(script.FloatVal); ok {
			col.AppendInt(int64(f))
			return nil
		}
	case storage.TFloat:
		if f, ok := script.AsFloat(v); ok {
			col.AppendFloat(f)
			return nil
		}
	case storage.TStr:
		if s, ok := v.(script.StrVal); ok {
			col.AppendStr(string(s))
			return nil
		}
		col.AppendStr(script.Str(v))
		return nil
	case storage.TBool:
		col.AppendBool(script.Truthy(v))
		return nil
	case storage.TBlob:
		switch v := v.(type) {
		case script.BytesVal:
			col.AppendBlob([]byte(v))
			return nil
		case script.StrVal:
			col.AppendBlob([]byte(v))
			return nil
		}
	}
	return core.Errorf(core.KindType,
		"cannot convert %s value to %s column", v.TypeName(), col.Typ)
}

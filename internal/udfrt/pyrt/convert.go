package pyrt

import (
	"repro/internal/core"
	"repro/internal/script"
	"repro/internal/storage"
	"repro/internal/udfrt"
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

// Args converts a batch's columns to the values a UDF is called with.
func Args(in *udfrt.Batch) []script.Value {
	args := make([]script.Value, len(in.Cols))
	for i, col := range in.Cols {
		args[i] = ColumnToValue(col, in.Columnar(i))
	}
	return args
}

// Params is the {param: value} dict of in's arguments as the UDF receives
// them. The extract payload that devUDF stores as input.bin pickles it;
// ParamsBatch is its inverse.
func Params(params storage.Schema, in *udfrt.Batch) *script.DictVal {
	d := script.NewDict()
	for i, p := range params {
		d.SetStr(p.Name, ColumnToValue(in.Cols[i], in.Columnar(i)))
	}
	return d
}

// ParamsBatch rebuilds the input batch from a parameter dict. Each column
// has the type of the argument it came from, which the engine passes
// uncast, so not always the parameter's.
func ParamsBatch(params storage.Schema, d *script.DictVal) (*udfrt.Batch, error) {
	cols := make([]*storage.Column, len(params))
	isColumn := make([]bool, len(params))
	for i, p := range params {
		v, ok := d.GetStr(p.Name)
		if !ok {
			return nil, core.Errorf(core.KindConstraint, "the inputs are missing parameter %q", p.Name)
		}
		col, columnar, err := paramColumn(v, p)
		if err != nil {
			return nil, err
		}
		cols[i], isColumn[i] = col, columnar
	}
	return udfrt.NewBatch(cols, isColumn), nil
}

// paramColumn converts a parameter value back to its column and reports
// whether it is columnar (a list or tuple). A list of unboxed numbers wraps
// its own vector; any other value takes its first non-NULL cell's type.
func paramColumn(v script.Value, p storage.ColumnDef) (*storage.Column, bool, error) {
	cells, columnar := []script.Value{v}, true
	switch l := v.(type) {
	case *script.ListVal:
		if ints, flts, nulls := l.Numbers(); ints != nil || flts != nil {
			col := storage.NewColumn(p.Name, storage.TFloat)
			if ints != nil {
				col.Typ = storage.TInt
			}
			col.Ints, col.Flts, col.Nulls = ints, flts, nulls
			return col, true, nil
		}
		cells = l.Boxed()
	case *script.TupleVal:
		cells = l.Items
	default:
		columnar = false
	}
	typ := p.Type
	for _, c := range cells {
		if t, ok := cellTypes[c.TypeName()]; ok {
			typ = t
			break
		}
	}
	col, err := ValueToColumn(v, p.Name, typ)
	return col, columnar, err
}

// cellTypes maps the script type of a non-NULL cell to its column type.
var cellTypes = map[string]storage.Type{
	"int": storage.TInt, "float": storage.TFloat, "str": storage.TStr,
	"bool": storage.TBool, "bytes": storage.TBlob,
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
// values) is udfrt.Shape's job, not the conversion's.
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

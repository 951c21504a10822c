package pyrt

import (
	"repro/internal/core"
	"repro/internal/script"
	"repro/internal/udfrt"
)

// NewConn builds the _conn object a PYTHON UDF reaches its database through
// (paper §2.3) — the server's loopback and devUDF's local runs alike, each
// with its own udfrt.Executor. execute(sql) takes exactly one string and returns
// x's result table as a dict of column name to values: a list per column,
// or a bare value when the table has exactly one row (the convention
// Listing 3 relies on: res['clf'] of a one-row result is directly
// loads-able). A statement without a result table returns None.
func NewConn(x udfrt.Executor) *script.ObjectVal {
	obj := script.NewObject("connection")
	obj.Methods["execute"] = func(_ *script.Interp, args []script.Value, _ map[string]script.Value) (script.Value, error) {
		if len(args) != 1 {
			return nil, core.Errorf(core.KindType, "execute() takes exactly one argument")
		}
		sql, ok := args[0].(script.StrVal)
		if !ok {
			return nil, core.Errorf(core.KindType, "execute() argument must be a string")
		}
		t, err := x.Execute(string(sql))
		if err != nil {
			return nil, err
		}
		if t == nil {
			return script.None, nil
		}
		d := script.NewDict()
		single := t.NumRows() == 1
		for _, col := range t.Cols {
			d.SetStr(col.Name, ColumnToValue(col, !single))
		}
		return d, nil
	}
	return obj
}

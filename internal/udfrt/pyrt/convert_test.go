package pyrt

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/script"
	"repro/internal/storage"
)

// typedColumn builds a three-row column of each type with a NULL in the
// middle.
func typedColumn(t *testing.T, typ storage.Type) *storage.Column {
	t.Helper()
	col := storage.NewColumn("c", typ)
	appendSample := func(i int) {
		switch typ {
		case storage.TInt:
			col.AppendInt(int64(10 + i))
		case storage.TFloat:
			col.AppendFloat(1.5 * float64(i+1))
		case storage.TStr:
			col.AppendStr(string(rune('a' + i)))
		case storage.TBool:
			col.AppendBool(i%2 == 0)
		case storage.TBlob:
			col.AppendBlob([]byte{byte(i), byte(i + 1)})
		}
	}
	appendSample(0)
	col.AppendNull()
	appendSample(2)
	return col
}

// TestColumnValueRoundTrip drives every storage type through
// ColumnToValue → ValueToColumn and compares cell by cell, NULLs included.
func TestColumnValueRoundTrip(t *testing.T) {
	for _, typ := range []storage.Type{
		storage.TInt, storage.TFloat, storage.TStr, storage.TBool, storage.TBlob,
	} {
		t.Run(typ.String(), func(t *testing.T) {
			col := typedColumn(t, typ)
			v := ColumnToValue(col, true)
			if _, ok := v.(*script.ListVal); !ok {
				t.Fatalf("columnar conversion gave %T, want list", v)
			}
			back, err := ValueToColumn(v, "c", typ)
			if err != nil {
				t.Fatal(err)
			}
			if back.Len() != col.Len() {
				t.Fatalf("round trip length %d, want %d", back.Len(), col.Len())
			}
			for i := 0; i < col.Len(); i++ {
				if col.IsNull(i) != back.IsNull(i) {
					t.Fatalf("row %d null mismatch", i)
				}
				if col.IsNull(i) {
					continue
				}
				if col.FormatValue(i) != back.FormatValue(i) {
					t.Fatalf("row %d: %q != %q", i, col.FormatValue(i), back.FormatValue(i))
				}
				if typ == storage.TBlob && string(col.Blobs[i]) != string(back.Blobs[i]) {
					t.Fatalf("row %d blob mismatch", i)
				}
			}
		})
	}
}

// TestScalarConvention: non-columnar arguments become bare scalars, and an
// empty column becomes None rather than an empty list.
func TestScalarConvention(t *testing.T) {
	col := storage.NewColumn("c", storage.TInt)
	col.AppendInt(7)
	if v := ColumnToValue(col, false); v != script.IntVal(7) {
		t.Fatalf("scalar conversion gave %v", v)
	}
	empty := storage.NewColumn("c", storage.TInt)
	if v := ColumnToValue(empty, false); v != script.None {
		t.Fatalf("empty scalar conversion gave %v", v)
	}
}

// TestValueToColumnScalarAndRange: scalars become one-row columns; ranges
// expand like lists.
func TestValueToColumnScalarAndRange(t *testing.T) {
	col, err := ValueToColumn(script.IntVal(5), "r", storage.TInt)
	if err != nil || col.Len() != 1 || col.Ints[0] != 5 {
		t.Fatalf("%v %v", col, err)
	}
	col, err = ValueToColumn(script.RangeVal{Start: 0, Stop: 3, Step: 1}, "r", storage.TInt)
	if err != nil || col.Len() != 3 || col.Ints[2] != 2 {
		t.Fatalf("%v %v", col, err)
	}
}

// TestValueToColumnCoercions mirrors the interpreter's coercion rules:
// float → int truncation, anything → str, truthiness → bool.
func TestValueToColumnCoercions(t *testing.T) {
	col, err := ValueToColumn(script.FloatVal(2.9), "c", storage.TInt)
	if err != nil || col.Ints[0] != 2 {
		t.Fatalf("%v %v", col, err)
	}
	col, err = ValueToColumn(script.IntVal(3), "c", storage.TStr)
	if err != nil || col.Strs[0] != "3" {
		t.Fatalf("%v %v", col, err)
	}
	col, err = ValueToColumn(script.IntVal(0), "c", storage.TBool)
	if err != nil || col.Bools[0] != false {
		t.Fatalf("%v %v", col, err)
	}
	if _, err := ValueToColumn(script.NewDict(), "c", storage.TInt); err == nil {
		t.Fatal("dict → INTEGER must fail")
	}
}

// TestValueToColumnRangeIsBounded: a range a UDF returns becomes an INTEGER
// column without a boxed cell in between, and one too large to hold is a
// typed error — it used to be an allocation the Go runtime dies of.
func TestValueToColumnRangeIsBounded(t *testing.T) {
	_, err := ValueToColumn(script.RangeVal{Start: 0, Stop: 1 << 42, Step: 1}, "r", storage.TInt)
	if core.KindOf(err) != core.KindRuntime || !strings.Contains(err.Error(), "too large to materialize") {
		t.Fatalf("range(0, 2**42) as a column: %v", err)
	}
	const rows = 100_000
	legal := script.RangeVal{Start: 5, Stop: 5 + 2*rows, Step: 2}
	allocs := testing.AllocsPerRun(3, func() {
		col, err := ValueToColumn(legal, "r", storage.TInt)
		if err != nil || col.Len() != rows || col.Ints[rows-1] != 5+2*(rows-1) {
			t.Fatalf("%v %v", col, err)
		}
	})
	if allocs > 4 { // the vector, the list around it, the column
		t.Errorf("a %d-row range took %v allocations to become a column", rows, allocs)
	}
}

package pyrt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/script"
	"repro/internal/storage"
	"repro/internal/udfrt"
)

// fuzzBatch decodes data into a parameter schema and an input batch of up
// to four typed columns. Each column takes a type byte (its low bit is the
// columnar flag), then, if columnar, a row count; a constant has one row.
// Each row is a NULL flag byte, then the value.
func fuzzBatch(data []byte) (storage.Schema, *udfrt.Batch) {
	next := func(n int) []byte {
		b := make([]byte, n)
		copy(b, data)
		data = data[min(n, len(data)):]
		return b
	}
	types := []storage.Type{storage.TInt, storage.TFloat, storage.TStr, storage.TBool, storage.TBlob}
	var schema storage.Schema
	var cols []*storage.Column
	var isColumn []bool
	for i := 0; i < 4 && len(data) > 0; i++ {
		h := next(1)[0]
		typ, columnar := types[int(h>>1)%len(types)], h&1 == 1
		rows := 1
		if columnar {
			rows = int(next(1)[0] % 9)
		}
		name := fmt.Sprintf("p%d", i)
		col := storage.NewColumn(name, typ)
		for r := 0; r < rows; r++ {
			if next(1)[0]%4 == 0 {
				col.AppendNull()
				continue
			}
			switch typ {
			case storage.TInt:
				col.AppendInt(int64(binary.LittleEndian.Uint64(next(8))))
			case storage.TFloat:
				col.AppendFloat(math.Float64frombits(binary.LittleEndian.Uint64(next(8))))
			case storage.TStr:
				col.AppendStr(string(next(int(next(1)[0] % 12))))
			case storage.TBool:
				col.AppendBool(next(1)[0]&1 == 1)
			case storage.TBlob:
				col.AppendBlob(next(int(next(1)[0] % 12)))
			}
		}
		schema = append(schema, storage.ColumnDef{Name: name, Type: typ})
		cols = append(cols, col)
		isColumn = append(isColumn, columnar)
	}
	return schema, udfrt.NewBatch(cols, isColumn)
}

// sameCell compares row i of two columns of one type, NULLs and float bit
// patterns included.
func sameCell(a, b *storage.Column, i int) bool {
	if a.IsNull(i) || b.IsNull(i) {
		return a.IsNull(i) == b.IsNull(i)
	}
	switch a.Typ {
	case storage.TInt:
		return a.Ints[i] == b.Ints[i]
	case storage.TFloat:
		return math.Float64bits(a.Flts[i]) == math.Float64bits(b.Flts[i])
	case storage.TStr:
		return a.Strs[i] == b.Strs[i]
	case storage.TBool:
		return a.Bools[i] == b.Bools[i]
	case storage.TBlob:
		return bytes.Equal(a.Blobs[i], b.Blobs[i])
	}
	return false
}

// FuzzParamsRoundTrip: a batch of typed columns, NULLs and the columnar
// flag turned into the parameter dict, pickled the way the extract payload
// is and read back with script.UnmarshalColumns, rebuilds through
// ParamsBatch into the same batch — types, NULLs, values and flags.
func FuzzParamsRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 1, 7, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 2, 1, 0, 0, 0, 0, 0, 0, 248, 127, 0, 4, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{5, 4, 1, 3, 'a', 'b', 'c', 0, 1, 0, 1, 'x', 8, 1, 0})
	f.Add([]byte{7, 2, 1, 1, 1, 0, 9, 0, 1, 2, 0xff, 0xfe, 4, 1, 2, 'h', 'i'})
	f.Add([]byte{0, 1, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		schema, in := fuzzBatch(data)
		raw, err := script.Marshal(Params(schema, in))
		if err != nil {
			t.Fatal(err)
		}
		v, err := script.UnmarshalColumns(raw)
		if err != nil {
			t.Fatal(err)
		}
		d, ok := v.(*script.DictVal)
		if !ok {
			t.Fatalf("the parameter dict read back as %T", v)
		}
		back, err := ParamsBatch(schema, d)
		if err != nil {
			t.Fatal(err)
		}
		if back.Rows != in.Rows || len(back.Cols) != len(in.Cols) {
			t.Fatalf("rebuilt %d columns of %d rows, want %d of %d", len(back.Cols), back.Rows, len(in.Cols), in.Rows)
		}
		for i, col := range in.Cols {
			got := back.Cols[i]
			if got.Typ != col.Typ || got.Len() != col.Len() || back.Columnar(i) != in.Columnar(i) {
				t.Fatalf("%s: rebuilt %s[%d] columnar=%v, want %s[%d] columnar=%v",
					schema[i].Name, got.Typ, got.Len(), back.Columnar(i), col.Typ, col.Len(), in.Columnar(i))
			}
			for r := 0; r < col.Len(); r++ {
				if !sameCell(col, got, r) {
					t.Fatalf("%s row %d: rebuilt %q (null %v), want %q (null %v)",
						schema[i].Name, r, got.FormatValue(r), got.IsNull(r), col.FormatValue(r), col.IsNull(r))
				}
			}
		}
	})
}

package storage

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestParseType(t *testing.T) {
	cases := map[string]Type{
		"INT": TInt, "integer": TInt, "BIGINT": TInt,
		"DOUBLE": TFloat, "real": TFloat,
		"STRING": TStr, "VARCHAR": TStr, "text": TStr,
		"BOOLEAN": TBool, "bool": TBool,
		"BLOB": TBlob,
	}
	for name, want := range cases {
		got, err := ParseType(name)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseType("GEOMETRY"); err == nil {
		t.Fatal("unknown type should fail")
	}
}

func TestTypeStringRoundTrip(t *testing.T) {
	for _, typ := range []Type{TInt, TFloat, TStr, TBool, TBlob} {
		back, err := ParseType(typ.String())
		if err != nil || back != typ {
			t.Errorf("round trip %v -> %q -> %v, %v", typ, typ.String(), back, err)
		}
	}
}

func TestColumnAppendAndNulls(t *testing.T) {
	c := NewColumn("x", TInt)
	c.AppendInt(1)
	c.AppendNull()
	c.AppendInt(3)
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.IsNull(0) || !c.IsNull(1) || c.IsNull(2) {
		t.Fatal("null bitmap wrong")
	}
	if c.Value(0) != int64(1) || c.Value(1) != nil || c.Value(2) != int64(3) {
		t.Fatalf("values: %v %v %v", c.Value(0), c.Value(1), c.Value(2))
	}
	if c.FormatValue(1) != "NULL" {
		t.Fatalf("format null: %s", c.FormatValue(1))
	}
}

func TestColumnCoercion(t *testing.T) {
	c := NewColumn("x", TInt)
	for _, v := range []any{int64(1), 2, 3.7, true, "42"} {
		if err := c.AppendValue(v); err != nil {
			t.Fatalf("AppendValue(%v): %v", v, err)
		}
	}
	if c.Ints[4] != 42 || c.Ints[3] != 1 || c.Ints[2] != 3 {
		t.Fatalf("coerced ints: %v", c.Ints)
	}
	if err := c.AppendValue("not a number"); err == nil {
		t.Fatal("bad string to int should fail")
	}
	f := NewColumn("f", TFloat)
	if err := f.AppendValue("2.5"); err != nil || f.Flts[0] != 2.5 {
		t.Fatalf("float coercion: %v %v", f.Flts, err)
	}
	b := NewColumn("b", TBlob)
	if err := b.AppendValue([]byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendValue(3.14); err == nil {
		t.Fatal("float to blob should fail")
	}
}

func TestColumnGather(t *testing.T) {
	c := NewColumn("x", TStr)
	for _, s := range []string{"a", "b", "c", "d"} {
		c.AppendStr(s)
	}
	c.AppendNull()
	g := c.Gather([]int{4, 2, 0})
	if g.Len() != 3 || !g.IsNull(0) || g.Strs[1] != "c" || g.Strs[2] != "a" {
		t.Fatalf("gather: %v nulls=%v", g.Strs, g.Nulls)
	}
}

func TestColumnCloneIsDeep(t *testing.T) {
	c := NewColumn("x", TBlob)
	c.AppendBlob([]byte{1})
	cl := c.Clone()
	cl.Blobs[0][0] = 9
	if c.Blobs[0][0] != 1 {
		t.Fatal("clone must deep-copy blobs")
	}
}

func TestTableAppendRow(t *testing.T) {
	tbl := NewTable("t", Schema{{"i", TInt}, {"s", TStr}})
	if err := tbl.AppendRow([]any{int64(1), "one"}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow([]any{nil, nil}); err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	if err := tbl.AppendRow([]any{int64(1)}); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	col, err := tbl.Column("S")
	if err != nil || col.Name != "s" {
		t.Fatalf("case-insensitive column lookup: %v %v", col, err)
	}
	if _, err := tbl.Column("zz"); err == nil {
		t.Fatal("missing column should fail")
	}
}

func TestLoadCSV(t *testing.T) {
	tbl := NewTable("n", Schema{{"i", TInt}})
	n, err := tbl.LoadCSV(strings.NewReader("1\n2\n3\n"), false)
	if err != nil || n != 3 {
		t.Fatalf("LoadCSV: %d %v", n, err)
	}
	if tbl.Cols[0].Ints[2] != 3 {
		t.Fatalf("data: %v", tbl.Cols[0].Ints)
	}
	tbl2 := NewTable("h", Schema{{"a", TInt}, {"b", TStr}})
	n, err = tbl2.LoadCSV(strings.NewReader("a,b\n1,x\n2,\n"), true)
	if err != nil || n != 2 {
		t.Fatalf("LoadCSV header: %d %v", n, err)
	}
	if !tbl2.Cols[1].IsNull(1) {
		t.Fatal("empty field should be NULL")
	}
	if _, err := tbl2.LoadCSV(strings.NewReader("1,2,3\n"), false); err == nil {
		t.Fatal("wrong field count should fail")
	}
}

func TestCatalogTables(t *testing.T) {
	c := NewCatalog()
	tbl := NewTable("numbers", Schema{{"i", TInt}})
	if err := c.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(NewTable("NUMBERS", nil)); err == nil {
		t.Fatal("duplicate (case-insensitive) table should fail")
	}
	got, err := c.Table("Numbers")
	if err != nil || got != tbl {
		t.Fatalf("lookup: %v %v", got, err)
	}
	if err := c.DropTable("numbers"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("numbers"); err == nil {
		t.Fatal("dropped table should be gone")
	}
	if err := c.DropTable("numbers"); err == nil {
		t.Fatal("double drop should fail")
	}
}

func TestCatalogFunctions(t *testing.T) {
	c := NewCatalog()
	f := &FuncDef{
		Name:     "mean_deviation",
		Params:   Schema{{"column", TInt}},
		Language: "PYTHON",
		Body:     "return 1.0",
		Returns:  Schema{{"result", TFloat}},
	}
	f.ID = c.NextID()
	if err := c.InstallFunction(f, false); err != nil {
		t.Fatal(err)
	}
	if f.ID != 1 || c.NextID() != 2 {
		t.Fatalf("id = %d, next = %d", f.ID, c.NextID())
	}
	dup, f2 := *f, *f
	if err := c.InstallFunction(&dup, false); err == nil {
		t.Fatal("duplicate function should fail")
	}
	f2.Body = "return 2.0"
	if err := c.InstallFunction(&f2, true); err != nil {
		t.Fatal(err)
	}
	got, err := c.Function("MEAN_DEVIATION")
	if err != nil || got.Body != "return 2.0" || got.ID != 1 || c.NextID() != 2 {
		t.Fatalf("replace kept id and new body: %+v %v", got, err)
	}
	if err := c.InstallFunction(&FuncDef{ID: 7, Name: "later"}, false); err != nil || c.NextID() != 8 {
		t.Fatalf("install past the counter: next = %d, %v", c.NextID(), err)
	}
	if !c.HasFunction("mean_deviation") {
		t.Fatal("HasFunction")
	}
	if err := c.DropFunction("mean_deviation"); err != nil {
		t.Fatal(err)
	}
	if c.HasFunction("mean_deviation") {
		t.Fatal("function should be gone")
	}
}

func TestSysFunctionsMetaTable(t *testing.T) {
	c := NewCatalog()
	_ = c.InstallFunction(&FuncDef{
		ID:       1,
		Name:     "train_rnforest",
		Params:   Schema{{"data", TFloat}, {"classes", TInt}, {"n_estimators", TInt}},
		Language: "PYTHON",
		Body:     "import pickle\nreturn 1",
		Returns:  Schema{{"clf", TBlob}, {"estimators", TInt}},
		IsTable:  true,
	}, false)
	mt, err := c.Table("sys.functions")
	if err != nil {
		t.Fatal(err)
	}
	if mt.NumRows() != 1 {
		t.Fatalf("rows = %d", mt.NumRows())
	}
	nameCol, _ := mt.Column("name")
	funcCol, _ := mt.Column("func")
	if nameCol.Strs[0] != "train_rnforest" || !strings.Contains(funcCol.Strs[0], "import pickle") {
		t.Fatalf("meta content: %v %v", nameCol.Strs, funcCol.Strs)
	}
	args, err := c.Table("sys.function_args")
	if err != nil {
		t.Fatal(err)
	}
	if args.NumRows() != 5 { // 3 params + 2 results
		t.Fatalf("args rows = %d", args.NumRows())
	}
	isres, _ := args.Column("is_result")
	count := 0
	for _, b := range isres.Bools {
		if b {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("result args = %d", count)
	}
}

func TestSysTablesAndColumns(t *testing.T) {
	c := NewCatalog()
	tbl := NewTable("data", Schema{{"x", TInt}, {"y", TStr}})
	_ = tbl.AppendRow([]any{int64(1), "a"})
	_ = c.CreateTable(tbl)
	st, err := c.Table("sys.tables")
	if err != nil || st.NumRows() != 1 {
		t.Fatalf("sys.tables: %v %v", st, err)
	}
	rows, _ := st.Column("rows")
	if rows.Ints[0] != 1 {
		t.Fatalf("row count: %v", rows.Ints)
	}
	sc, err := c.Table("sys.columns")
	if err != nil || sc.NumRows() != 2 {
		t.Fatalf("sys.columns: %v", err)
	}
}

func TestColumnValueRoundTripProperty(t *testing.T) {
	f := func(ints []int64, nullEvery uint8) bool {
		c := NewColumn("p", TInt)
		step := int(nullEvery%5) + 2
		for i, v := range ints {
			if i%step == 0 {
				c.AppendNull()
			} else {
				c.AppendInt(v)
			}
		}
		if c.Len() != len(ints) {
			return false
		}
		for i, v := range ints {
			if i%step == 0 {
				if !c.IsNull(i) || c.Value(i) != nil {
					return false
				}
			} else if c.Value(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// codecTable has a column of every type, NULLs in some of them.
func codecTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable("codec", Schema{
		{Name: "i", Type: TInt}, {Name: "f", Type: TFloat}, {Name: "s", Type: TStr},
		{Name: "b", Type: TBool}, {Name: "bl", Type: TBlob},
	})
	for _, row := range [][]any{
		{int64(1), 1.5, "one", true, []byte("x")},
		{nil, 2.5, "", false, nil},
		{int64(3), 3.5, nil, true, []byte{}},
	} {
		if err := tbl.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestTableCodecRoundTrip(t *testing.T) {
	tbl := codecTable(t)
	r := NewByteReader(EncodeTable(nil, tbl))
	got, err := DecodeTable(r)
	if err != nil || r.Remaining() != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, r.Remaining())
	}
	if got.Name != tbl.Name || !reflect.DeepEqual(got.Schema(), tbl.Schema()) || got.NumRows() != tbl.NumRows() {
		t.Fatalf("round trip changed the table's shape: %s %v, %d rows", got.Name, got.Schema(), got.NumRows())
	}
	for c, col := range tbl.Cols {
		for i := 0; i < col.Len(); i++ {
			// Sprint: a nil blob and an empty one are the same cell
			if g, w := fmt.Sprint(got.Cols[c].Value(i)), fmt.Sprint(col.Value(i)); g != w {
				t.Errorf("%s row %d: decoded %s, encoded %s", col.Name, i, g, w)
			}
		}
	}
}

// TestDecodeRejectsInvalidBooleanByte: a BOOLEAN value byte is 0 or 1. The
// decoder behind bind arguments, result chunks and WAL records used to read
// 2..255 as false.
func TestDecodeRejectsInvalidBooleanByte(t *testing.T) {
	col := NewColumn("b", TBool)
	col.AppendBool(true)
	col.AppendBool(false)
	valid := EncodeTable(nil, &Table{Name: "t", Cols: []*Column{col}})
	if _, err := DecodeTable(NewByteReader(valid)); err != nil {
		t.Fatalf("control: %v", err)
	}
	for _, b := range []byte{2, 0x80, 0xFF} {
		bad := append([]byte{}, valid...)
		bad[len(bad)-1] = b // the last value
		_, err := DecodeTable(NewByteReader(bad))
		if core.KindOf(err) != core.KindProtocol || !strings.Contains(err.Error(), "invalid boolean byte") {
			t.Errorf("boolean byte %d: want a protocol error naming it, got %v", b, err)
		}
	}
}

// TestDecodeRejectsRaggedTable: columns of one table have one length. A
// 2-row column followed by a 1-row one used to decode to a table whose
// NumRows is 2, and the next scan indexed past the short vector.
func TestDecodeRejectsRaggedTable(t *testing.T) {
	long := NewColumn("i", TInt)
	long.AppendInt(1)
	long.AppendInt(2)
	short := NewColumn("b", TBool)
	short.AppendBool(true)
	buf := AppendString(nil, "ragged")
	buf = binary.BigEndian.AppendUint32(buf, 2)
	for _, col := range []*Column{long, short} {
		buf = AppendColumnValues(AppendColumnHeader(buf, col, 0, col.Len()), col, 0, col.Len())
	}
	tbl, err := DecodeTable(NewByteReader(buf))
	if core.KindOf(err) != core.KindProtocol || !strings.Contains(err.Error(), "ragged table") {
		t.Fatalf("want a protocol error naming the ragged table, got table %v, error %v", tbl, err)
	}
}

// TestEncodedTableSizeAndChunkEnd: the size is exact for every row range;
// a chunk holds at least one row, never encodes to more than the size
// ChunkEnd reports, and stays within the limit unless it is a single row.
func TestEncodedTableSizeAndChunkEnd(t *testing.T) {
	tbl := codecTable(t)
	n := tbl.NumRows()
	for _, c := range []*Table{tbl, tbl.SliceRows(0, 0), {Name: "no-columns"}} {
		for from := 0; from <= c.NumRows(); from++ {
			for to := from; to <= c.NumRows(); to++ {
				if got, want := EncodedTableSize(c, from, to), len(EncodeTableRange(nil, c, from, to)); got != want {
					t.Errorf("%s rows [%d,%d): EncodedTableSize %d, encoding is %d bytes", c.Name, from, to, got, want)
				}
			}
		}
	}
	for limit := 0; limit <= EncodedTableSize(tbl, 0, n)+8; limit++ {
		for from := 0; from < n; from++ {
			to, size := ChunkEnd(tbl, from, limit)
			if to <= from || to > n {
				t.Fatalf("limit %d from %d: chunk ends at %d", limit, from, to)
			}
			if enc := EncodedTableSize(tbl, from, to); enc > size || (size > limit && to > from+1) {
				t.Errorf("limit %d rows [%d,%d): reported %d bytes, encoding is %d", limit, from, to, size, enc)
			}
		}
	}
	if to, size := ChunkEnd(tbl.SliceRows(0, 0), 0, 64); to != 0 || size != EncodedTableSize(tbl, 0, 0) {
		t.Errorf("empty table: chunk ends at %d with %d bytes", to, size)
	}
}

// TestAppendCellAgreesWithAppendValue: for every pair of types, NULL and
// not, copying a cell does what boxing it and appending the value does —
// same cell or same error.
func TestAppendCellAgreesWithAppendValue(t *testing.T) {
	src := codecTable(t)
	parsable := NewColumn("digits", TStr)
	parsable.AppendStr("42")
	parsable.AppendStr("4.5")
	parsable.AppendNull()
	for _, from := range append(src.Cols, parsable) {
		for to := TInt; to <= TBlob; to++ {
			for i := 0; i < from.Len(); i++ {
				cell, boxed := NewColumn("", to), NewColumn("", to)
				cellErr, boxedErr := cell.AppendCell(from, i), boxed.AppendValue(from.Value(i))
				if (cellErr == nil) != (boxedErr == nil) || (cellErr != nil && cellErr.Error() != boxedErr.Error()) {
					t.Errorf("%s row %d of %s: AppendCell says %v, AppendValue %v", to, i, from.Name, cellErr, boxedErr)
				}
				if !reflect.DeepEqual(cell, boxed) {
					t.Errorf("%s row %d of %s: AppendCell left %+v, AppendValue %+v", to, i, from.Name, cell, boxed)
				}
			}
		}
	}
}

func TestVectorAndColumnOverShareTheBackingArray(t *testing.T) {
	for _, col := range codecTable(t).Cols {
		over := ColumnOver("o", col.Vector())
		if over.Typ != col.Typ || over.Len() != col.Len() {
			t.Fatalf("%s: ColumnOver(Vector()) is %s with %d rows", col.Name, over.Typ, over.Len())
		}
		if reflect.ValueOf(over.Vector()).Pointer() != reflect.ValueOf(col.Vector()).Pointer() {
			t.Errorf("%s: the vector was copied", col.Name)
		}
	}
}

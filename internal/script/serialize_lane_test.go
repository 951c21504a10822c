package script

import (
	"bytes"
	"reflect"
	"testing"
)

// TestUnmarshalColumnsLanes pins which pickled lists land in a typed lane
// and what the lane holds: the slices NewIntList and NewFloatList would be
// given, owned by the list (shared is false: it writes them without a copy).
func TestUnmarshalColumnsLanes(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   *ListVal
		want ListVal // lane, ints, flts, nulls
	}{
		{"ints", NewList(IntVal(300), IntVal(-1)), ListVal{lane: laneInt, ints: []int64{300, -1}}},
		{"floats", NewList(FloatVal(0.5), FloatVal(-2)), ListVal{lane: laneFloat, flts: []float64{0.5, -2}}},
		{"ints with None", NewList(None, IntVal(7), None),
			ListVal{lane: laneInt, ints: []int64{0, 7, 0}, nulls: []bool{true, false, true}}},
		{"floats with None", NewList(FloatVal(1.5), None),
			ListVal{lane: laneFloat, flts: []float64{1.5, 0}, nulls: []bool{false, true}}},
		{"empty", NewList(), ListVal{Items: []Value{}}},
		{"only None", NewList(None, None), ListVal{Items: []Value{None, None}}},
		{"int and float", NewList(IntVal(1), FloatVal(2)), ListVal{Items: []Value{IntVal(1), FloatVal(2)}}},
		{"int then str", NewList(IntVal(1), StrVal("x")), ListVal{Items: []Value{IntVal(1), StrVal("x")}}},
		{"bools", NewList(BoolVal(true)), ListVal{Items: []Value{BoolVal(true)}}},
	} {
		raw, err := Marshal(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		v, err := UnmarshalColumns(raw)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := v.(*ListVal)
		if !reflect.DeepEqual(*got, tc.want) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, *got, tc.want)
		}
		if again, err := Marshal(got); err != nil || !bytes.Equal(again, raw) {
			t.Errorf("%s: does not pickle back to its bytes: %v", tc.name, err)
		}
		// the exported boundary boxes, whatever the lane
		b, err := Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		if bl := b.(*ListVal); bl.lane != laneBoxed || len(bl.Items) != tc.in.Len() || bl.Repr() != tc.in.Repr() {
			t.Errorf("%s: Unmarshal returned %+v", tc.name, *bl)
		}
	}
}

// TestUnmarshalBoxesNestedLists checks Unmarshal's promise for lists that
// are not at the top: in a dict, a tuple, another list.
func TestUnmarshalBoxesNestedLists(t *testing.T) {
	col := func() *ListVal { return NewIntList([]int64{300, 301}, nil) }
	inner := NewDict()
	inner.SetStr("column", col())
	outer := NewDict()
	outer.SetStr("params", inner)
	outer.SetStr("tuple", &TupleVal{Items: []Value{col(), IntVal(1)}})
	outer.SetStr("list", NewList(col(), StrVal("x")))
	raw, err := Marshal(outer)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	var lists int
	var walk func(Value)
	walk = func(v Value) {
		switch v := v.(type) {
		case *ListVal:
			lists++
			if v.lane != laneBoxed || len(v.Items) != v.Len() {
				t.Errorf("a list left Unmarshal in lane %d with %d Items", v.lane, len(v.Items))
			}
			for _, it := range v.Items {
				walk(it)
			}
		case *TupleVal:
			for _, it := range v.Items {
				walk(it)
			}
		case *DictVal:
			for _, kv := range v.Items() {
				walk(kv[1])
			}
		}
	}
	walk(v)
	if lists != 4 {
		t.Fatalf("walked %d lists, want 4", lists)
	}
}

// TestUnmarshalColumnsAllocations bounds what decoding a column costs: the
// list, its numbers, and nothing per cell. (Unmarshal, which boxes, pays one
// object per cell beyond the small ints.)
func TestUnmarshalColumnsAllocations(t *testing.T) {
	const rows = 50_000
	ints := make([]int64, rows)
	for i := range ints {
		ints[i] = int64(300 + i)
	}
	raw, err := Marshal(NewIntList(ints, nil))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := UnmarshalColumns(raw); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("decoding a %d-int list allocates %.0f objects, want <= 4", rows, allocs)
	}
	t.Logf("%d-int list: %.0f allocations", rows, allocs)
}

// TestUnmarshalForgedCountAllocatesNothing: a list that claims 2^32-1 cells
// and holds one must fail as truncated before the lane is sized from the
// claim.
func TestUnmarshalForgedCountAllocatesNothing(t *testing.T) {
	raw := append([]byte(pickleMagic), tagList, 0xFF, 0xFF, 0xFF, 0xFF, tagInt, 0, 0, 0, 0, 0, 0, 0, 1)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := UnmarshalColumns(raw); err == nil {
			t.Fatal("a forged count decoded")
		}
	})
	if allocs > 8 {
		t.Errorf("a forged count cost %.0f allocations", allocs)
	}
}

// TestPickleModuleLoadsColumns: PyLite's own pickle.loads (and load, the
// generated prologue's way to input.bin) hand a UDF a column-backed list.
func TestPickleModuleLoadsColumns(t *testing.T) {
	mod, err := Parse("t", "import pickle\ncolumn = pickle.loads(pickle.dumps([300, 301, None]))\ntotal = column[0] + column[1]\n")
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewInterp().Run(mod)
	if err != nil {
		t.Fatal(err)
	}
	column, _ := env.Get("column")
	if l := column.(*ListVal); l.lane != laneInt || l.Items != nil || l.Repr() != "[300, 301, None]" {
		t.Fatalf("pickle.loads returned %+v", *l)
	}
	if total, _ := env.Get("total"); total != IntVal(601) {
		t.Fatalf("total = %v", total)
	}
}

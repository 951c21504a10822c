package script

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// deepValue builds a nested value exercising every serializable tag.
func deepValue() Value {
	d := NewDict()
	d.SetStr("none", None)
	d.SetStr("bools", NewList(BoolVal(true), BoolVal(false)))
	d.SetStr("ints", NewList(IntVal(0), IntVal(-1), IntVal(1<<62)))
	d.SetStr("floats", NewList(FloatVal(0), FloatVal(-2.5), FloatVal(1e308)))
	d.SetStr("strs", NewList(StrVal(""), StrVal("héllo\x00world"), StrVal("quote'\"")))
	d.SetStr("bytes", BytesVal([]byte{0, 255, 1, 2}))
	d.SetStr("tuple", &TupleVal{Items: []Value{IntVal(1), StrVal("x")}})
	inner := NewDict()
	inner.SetStr("nested", NewList(IntVal(7), StrVal("deep"), None))
	d.SetStr("dict", inner)
	return d
}

// TestSerializeRoundTripDeep round-trips a deeply nested value and compares
// reprs (structural equality for the value model).
func TestSerializeRoundTripDeep(t *testing.T) {
	v := deepValue()
	data, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Repr() != v.Repr() {
		t.Fatalf("round trip diverged:\n in: %s\nout: %s", v.Repr(), got.Repr())
	}
	// A second marshal of the decoded value is byte-identical: the codec is
	// canonical, which the wire layer's input.bin caching relies on.
	data2, err := Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("codec is not canonical")
	}
}

// TestUnmarshalTruncated feeds every prefix of a marshaled deep value to
// Unmarshal: each must error cleanly (no panic, no silent success).
func TestUnmarshalTruncated(t *testing.T) {
	data, err := Marshal(deepValue())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(data); k++ {
		if _, err := Unmarshal(data[:k]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", k, len(data))
		}
	}
}

// TestUnmarshalAdversarial covers hand-crafted corrupt inputs: bad magic,
// unknown tags, and length fields pointing past the buffer.
func TestUnmarshalAdversarial(t *testing.T) {
	good, err := Marshal(StrVal("x"))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOPE\x00"),
		"magic only":  []byte(pickleMagic),
		"unknown tag": append([]byte(pickleMagic), 0xEE),
		"huge str len": append([]byte(pickleMagic),
			tagStr, 0xFF, 0xFF, 0xFF, 0xFF, 'a'),
		"huge list len": append([]byte(pickleMagic),
			tagList, 0xFF, 0xFF, 0xFF, 0x00),
		"trailing garbage": append(append([]byte{}, good...), 0x01, 0x02),
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

// FuzzUnmarshal hammers the decoder with arbitrary bytes (seeded with valid
// pickles): it must never panic, and any value it does decode must survive
// a re-marshal/re-unmarshal cycle. The two entry points are one decoder:
// UnmarshalColumns (number lists in typed lanes) and Unmarshal (every cell
// boxed) accept the same inputs with the same error, print the same repr and
// marshal to the same bytes, and those bytes, being Marshal's, decode and
// marshal back to themselves through both.
func FuzzUnmarshal(f *testing.F) {
	for _, v := range []Value{None, IntVal(42), StrVal("seed"), deepValue(),
		NewList(IntVal(1), NewList(IntVal(2))),
		NewIntList([]int64{300, -1, 1 << 62}, nil),                        // all ints: the int lane
		NewFloatList([]float64{0.5, -2.5, 1e308}, nil),                    // all floats: the float lane
		NewIntList([]int64{7, 0, 9}, []bool{false, true, false}),          // int then None: a lane with nulls
		NewList(None, None, FloatVal(1.5)),                                // the number comes last
		NewList(IntVal(1), IntVal(2), StrVal("x"), IntVal(3)),             // int then str: boxed after all
		NewList(IntVal(1), FloatVal(2)),                                   // two kinds of number: boxed
		&TupleVal{Items: []Value{IntVal(1), IntVal(2)}},                   // a tuple never takes a lane
		NewList(NewIntList([]int64{1, 2}, nil), NewList(), NewList(None)), // lanes inside a boxed list
	} {
		data, err := Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(pickleMagic))
	// a count larger than the cells that follow: three claimed, one there, and a cell cut short
	f.Add(append([]byte(pickleMagic), tagList, 0, 0, 0, 3, tagInt, 0, 0, 0, 0, 0, 0, 0, 1))
	f.Add(append([]byte(pickleMagic), tagList, 0xFF, 0xFF, 0xFF, 0xFF, tagInt, 0, 0, 0, 0, 0, 0, 0, 1, tagInt, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Unmarshal(data)
		lanes, lerr := UnmarshalColumns(data)
		if (err == nil) != (lerr == nil) || (err != nil && err.Error() != lerr.Error()) {
			t.Fatalf("Unmarshal says %v, UnmarshalColumns %v", err, lerr)
		}
		if err != nil {
			if k := core.KindOf(err); k != core.KindProtocol && k != core.KindType {
				t.Fatalf("malformed input is a %v error: %v", k, err)
			}
			return
		}
		again, err := Marshal(v)
		if err != nil {
			t.Fatalf("decoded value does not re-marshal: %v", err)
		}
		if lagain, err := Marshal(lanes); err != nil || !bytes.Equal(again, lagain) || v.Repr() != lanes.Repr() {
			t.Fatalf("boxed and lane decodings differ (%v):\n%s\n%s", err, v.Repr(), lanes.Repr())
		}
		v2, err := Unmarshal(again)
		if err != nil {
			t.Fatalf("re-marshaled value does not decode: %v", err)
		}
		if v.Repr() != v2.Repr() {
			t.Fatalf("unstable codec: %s vs %s", v.Repr(), v2.Repr())
		}
		lanes2, err := UnmarshalColumns(again)
		if err != nil {
			t.Fatalf("re-marshaled value does not decode into lanes: %v", err)
		}
		for _, d := range []Value{v2, lanes2} {
			if b, err := Marshal(d); err != nil || !bytes.Equal(b, again) {
				t.Fatalf("Marshal's own bytes do not decode back to themselves (%v)", err)
			}
		}
	})
}

package script

import (
	"bytes"
	"testing"
)

// envelopeSeeds are extract payloads as a server packs them: the UDF's
// name, the parameter dict and the row counts, the parameters shaped as
// FuzzParamsRoundTrip's batches (a column or a constant of each type, NULLs
// among them), and forms around them: the key twice, nested but not on top,
// a dict that is not the top value.
func envelopeSeeds(tb testing.TB) [][]byte {
	envelope := func(params Value) *DictVal {
		d := NewDict()
		d.SetStr("udf", StrVal("f"))
		d.SetStr("params", params)
		d.SetStr("total_rows", IntVal(3))
		d.SetStr("sample_rows", IntVal(3))
		return d
	}
	params := func(kv ...Value) *DictVal {
		d := NewDict()
		for i := 0; i < len(kv); i += 2 {
			d.SetStr(string(kv[i].(StrVal)), kv[i+1])
		}
		return d
	}
	var seeds [][]byte
	for _, v := range []Value{
		envelope(params()),
		envelope(params(StrVal("p0"), NewIntList([]int64{7, 0, -1}, []bool{false, true, false}))),
		envelope(params(StrVal("p0"), NewFloatList([]float64{0.5, 2}, nil), StrVal("p1"), IntVal(4))),
		envelope(params(StrVal("p0"), NewList(StrVal("abc"), None, StrVal("")), StrVal("p1"), BoolVal(true))),
		envelope(params(StrVal("p0"), NewList(BoolVal(true), None), StrVal("p1"), NewList(BytesVal{0xff, 0xfe}, None))),
		envelope(params(StrVal("p0"), NewList(None, None), StrVal("p1"), NewIntList(nil, nil), StrVal("p2"), None)),
		envelope(IntVal(1)), // params not a dict
		params(StrVal("udf"), StrVal("f"), StrVal("inner"), envelope(params())), // "params" only nested
		NewList(envelope(params())),
	} {
		data, err := Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	// "params" twice: the dict keeps the second value
	twice := append([]byte(pickleMagic), tagDict, 0, 0, 0, 2)
	for _, n := range []byte{1, 2} {
		twice = append(twice, tagStr, 0, 0, 0, 6)
		twice = append(twice, "params"...)
		twice = append(twice, tagList, 0, 0, 0, 1, tagInt, 0, 0, 0, 0, 0, 0, 0, n)
	}
	// an unhashable key after the entry
	unhashable := append([]byte(pickleMagic), tagDict, 0, 0, 0, 2, tagStr, 0, 0, 0, 6)
	unhashable = append(unhashable, "params"...)
	unhashable = append(unhashable, tagDict, 0, 0, 0, 0, tagList, 0, 0, 0, 0, tagNone)
	return append(seeds, twice, unhashable)
}

// FuzzPickledEntry holds PickledEntry to UnmarshalColumns: for any bytes and
// key, it fails if and only if UnmarshalColumns fails (then with its error),
// the top value is not a dict or the key is absent; when it succeeds, the
// entry decodes to a value of the type it names that pickles to the bytes
// the dict's own value under the key pickles to. Of its input it changes
// only the four bytes it writes the magic into, and only when it succeeds.
func FuzzPickledEntry(f *testing.F) {
	for _, data := range append(pickleSeeds(f), envelopeSeeds(f)...) {
		f.Add(data, "params")
	}
	f.Add(envelopeSeeds(f)[1], "udf")
	f.Add(pickleSeeds(f)[3], "ints")
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		v, verr := UnmarshalColumns(data)
		spent := bytes.Clone(data)
		entry, typeName, err := PickledEntry(spent, key)
		if err != nil && !bytes.Equal(spent, data) {
			t.Fatalf("PickledEntry failed (%v) and changed its input", err)
		}
		if verr != nil {
			if err == nil || err.Error() != verr.Error() {
				t.Fatalf("UnmarshalColumns refuses with %v, PickledEntry with %v", verr, err)
			}
			return
		}
		d, isDict := v.(*DictVal)
		var want Value
		if isDict {
			want, _ = d.GetStr(key)
		}
		if (err != nil) != (want == nil) {
			t.Fatalf("PickledEntry says %v of a %s holding %v under %q", err, v.TypeName(), want, key)
		}
		if err != nil {
			return
		}
		at := cap(spent) - cap(entry) // the entry is spent[at:]
		if !bytes.Equal(spent[:at], data[:at]) || string(spent[at:at+4]) != pickleMagic || !bytes.Equal(spent[at+4:], data[at+4:]) {
			t.Fatalf("PickledEntry changed its input beyond the magic it writes at %d", at)
		}
		got, err := UnmarshalColumns(entry)
		if err != nil {
			t.Fatalf("the entry does not decode: %v", err)
		}
		if typeName != want.TypeName() || got.TypeName() != want.TypeName() {
			t.Fatalf("the entry is a %s named %s, the dict's value a %s", got.TypeName(), typeName, want.TypeName())
		}
		gb, gerr := Marshal(got)
		wb, werr := Marshal(want)
		if (gerr == nil) != (werr == nil) || !bytes.Equal(gb, wb) {
			t.Fatalf("the entry pickles to %x (%v), the dict's value to %x (%v)", gb, gerr, wb, werr)
		}
	})
}

package script

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMarshalRoundTripBasics(t *testing.T) {
	values := []Value{
		None,
		BoolVal(true),
		BoolVal(false),
		IntVal(0),
		IntVal(-1),
		IntVal(math.MaxInt64),
		IntVal(math.MinInt64),
		FloatVal(0),
		FloatVal(3.14159),
		FloatVal(math.Inf(1)),
		StrVal(""),
		StrVal("hello\nworld\x00"),
		BytesVal{0, 1, 2, 255},
		NewList(IntVal(1), StrVal("two"), None),
		&TupleVal{Items: []Value{IntVal(1), IntVal(2)}},
	}
	d := NewDict()
	d.SetStr("a", IntVal(1))
	d.SetStr("b", NewList(FloatVal(2.5)))
	_ = d.Set(IntVal(7), StrVal("seven"))
	values = append(values, d)

	for _, v := range values {
		blob, err := Marshal(v)
		if err != nil {
			t.Fatalf("Marshal(%s): %v", v.Repr(), err)
		}
		back, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("Unmarshal(%s): %v", v.Repr(), err)
		}
		if !Equal(v, back) && !(v.TypeName() == "float" && math.IsInf(float64(v.(FloatVal)), 0)) {
			t.Fatalf("round trip changed %s -> %s", v.Repr(), back.Repr())
		}
	}
}

// randomValue builds an arbitrary picklable value of bounded depth.
func randomValue(r *rand.Rand, depth int) Value {
	choices := 6
	if depth > 0 {
		choices = 9
	}
	switch r.Intn(choices) {
	case 0:
		return None
	case 1:
		return BoolVal(r.Intn(2) == 0)
	case 2:
		return IntVal(r.Int63() - r.Int63())
	case 3:
		return FloatVal(r.NormFloat64() * 1000)
	case 4:
		b := make([]byte, r.Intn(20))
		r.Read(b)
		return StrVal(b)
	case 5:
		b := make([]byte, r.Intn(20))
		r.Read(b)
		return BytesVal(b)
	case 6:
		n := r.Intn(5)
		items := make([]Value, n)
		for i := range items {
			items[i] = randomValue(r, depth-1)
		}
		return &ListVal{Items: items}
	case 7:
		n := r.Intn(4)
		items := make([]Value, n)
		for i := range items {
			items[i] = randomValue(r, depth-1)
		}
		return &TupleVal{Items: items}
	default:
		d := NewDict()
		for i := 0; i < r.Intn(4); i++ {
			_ = d.Set(IntVal(r.Int63n(1000)), randomValue(r, depth-1))
		}
		return d
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		blob, err := Marshal(v)
		if err != nil {
			return false
		}
		back, err := Unmarshal(blob)
		if err != nil {
			return false
		}
		// NaN floats break Equal; accept them via repr comparison.
		return Equal(v, back) || v.Repr() == back.Repr()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	one, err := Marshal(IntVal(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		nil,
		{},
		[]byte("XXXX"),
		[]byte("PKL1"),                       // magic only, no value
		[]byte("PKL1\x03\x00"),               // truncated int
		[]byte("PKL1\x05\x00\x00\x00\x09ab"), // str length beyond data
		[]byte("PKL1\xff"),                   // unknown tag
		append(one, 0x00),                    // trailing garbage
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMarshalRejectsFunctions(t *testing.T) {
	fn := &FuncVal{Name: "f"}
	if _, err := Marshal(fn); err == nil {
		t.Fatal("functions must not pickle")
	}
	if _, err := Marshal(NewObject("opaque")); err == nil {
		t.Fatal("non-picklable objects must not pickle")
	}
}

func TestRangePicklesAsList(t *testing.T) {
	blob, err := Marshal(RangeVal{0, 5, 1})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Repr() != "[0, 1, 2, 3, 4]" {
		t.Fatalf("got %s", back.Repr())
	}
}

func TestDictOrderPreservedThroughPickle(t *testing.T) {
	d := NewDict()
	d.SetStr("z", IntVal(1))
	d.SetStr("a", IntVal(2))
	d.SetStr("m", IntVal(3))
	data, err := Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Repr() != "{'z': 1, 'a': 2, 'm': 3}" {
		t.Fatalf("order lost: %s", back.Repr())
	}
}

package transfer

import (
	"bytes"
	"compress/flate"
	"fmt"
	"math/rand"
	"testing"

	_ "repro/internal/mllib" // registers the classifier's pickler
	"repro/internal/script"
)

// shape is one kind of payload an extract ships.
type shape struct {
	name string
	data []byte
	// atMost is the share of plain DEFLATE's size Compress must reach. 1 is
	// "never worse"; a column of fixed-width number cells must do better.
	atMost float64
	// maxBytes is what Compress made of the shape when every plane was
	// written at the default level. No Compress since may make more.
	maxBytes int
}

func pickled(tb testing.TB, v script.Value) []byte {
	tb.Helper()
	raw, err := script.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

func params(kv ...any) *script.DictVal {
	d := script.NewDict()
	for i := 0; i < len(kv); i += 2 {
		d.SetStr(kv[i].(string), kv[i+1].(script.Value))
	}
	return d
}

// benchInts is the benchmark's extract column: rows ints in [0, 10 000).
func benchInts(rng *rand.Rand, rows int) []int64 {
	ints := make([]int64, rows)
	for i := range ints {
		ints[i] = int64(rng.Intn(10_000))
	}
	return ints
}

// classifierPickle is what train_rnforest (paper Listing 1) returns: a dict
// holding a pickled random forest.
func classifierPickle(tb testing.TB) []byte {
	tb.Helper()
	mod, err := script.Parse("listing1", `
import pickle
from sklearn.ensemble import RandomForestClassifier

def train_rnforest(data, classes, n_estimators):
    clf = RandomForestClassifier(n_estimators)
    clf.fit(data, classes)
    return {"clf": pickle.dumps(clf), "estimators": n_estimators}

data = []
classes = []
for i in range(0, 400):
    data.append((i * 37 % 101) / 7.0)
    classes.append(i * 37 % 101 > 50)
blob = pickle.dumps(train_rnforest(data, classes, 8))
`)
	if err != nil {
		tb.Fatal(err)
	}
	env, err := script.NewInterp().Run(mod)
	if err != nil {
		tb.Fatal(err)
	}
	blob, _ := env.Get("blob")
	return []byte(blob.(script.BytesVal))
}

// shapes is every kind of payload TestCompressShapes holds Compress to and
// FuzzUnpack starts from.
func shapes(tb testing.TB) []shape {
	rng := rand.New(rand.NewSource(24))
	const rows = 20_000
	ints := benchInts(rng, rows)
	// three DOUBLE columns: whole numbers (the integer column loaded as
	// DOUBLE: the low mantissa bytes are zero), measurements with a full
	// mantissa (only the tag, sign and exponent planes give), and amounts to
	// two decimals, whose cells repeat inside themselves (1/100 is periodic
	// in binary) so that planes would lose to plain DEFLATE by half
	whole, measured, decimal := make([]float64, rows), make([]float64, rows), make([]float64, rows)
	for i := range whole {
		whole[i] = float64(ints[i])
		measured[i] = rng.NormFloat64()*15 + 100
		decimal[i] = float64(rng.Intn(100_000)) / 100
	}
	nulls := make([]bool, rows)
	for i := range nulls {
		nulls[i] = rng.Intn(10) == 0
	}
	strs := make([]script.Value, rows/4)
	for i := range strs {
		strs[i] = script.StrVal(fmt.Sprintf("patient-%d ward %c", rng.Intn(5000), 'A'+rune(rng.Intn(6))))
	}
	random := make([]byte, 64<<10)
	rng.Read(random)

	envelope := params(
		"udf", script.StrVal("haversine_py"),
		"params", params("amount", script.NewFloatList(decimal, nil), "n", script.NewIntList(ints, nil)),
		"total_rows", script.IntVal(rows), "sample_rows", script.IntVal(rows))

	out := []shape{
		{"integer-column", pickled(tb, params("column", script.NewIntList(ints, nil))), 0.75, 35134},
		{"double-column", pickled(tb, params("column", script.NewFloatList(whole, nil))), 0.75, 38321},
		{"double-column-full-mantissa", pickled(tb, params("column", script.NewFloatList(measured, nil))), 0.9, 131386},
		{"double-column-decimal", pickled(tb, params("column", script.NewFloatList(decimal, nil))), 1, 62679},
		{"integer-column-with-nulls", pickled(tb, params("column", script.NewIntList(ints, nulls))), 1, 43058},
		{"string-column", pickled(tb, params("column", script.NewList(strs...))), 1, 17080},
		{"two-parameter-envelope", pickled(tb, envelope), 1, 113522},
		{"classifier", classifierPickle(tb), 1, 218},
		{"random-64k", random, 1, 65565},
		{"empty", nil, 1, 7},
	}
	for n, size := range shortBytes {
		out = append(out, shape{fmt.Sprintf("len-%d", n), random[100 : 100+n], 1, size})
	}
	return out
}

// shortBytes is what Compress made of the first 0..40 bytes of random-64k
// when every plane was written at the default level.
var shortBytes = [...]int{
	7, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 23, 24, 25, 26, 27, 28, 29,
	30, 31, 32, 33, 34, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50,
}

// plainDeflate is what Compress was before it byte-planed: DEFLATE at the
// default level over the bytes as they are.
func plainDeflate(tb testing.TB, data []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// compressHeader is the most the compressed form adds to its DEFLATE
// stream: the stride byte and a uvarint of the raw length.
const compressHeader = 1 + 10

// TestCompressShapes holds Compress to plain DEFLATE on every payload shape:
// exact round trip, never more than 1 % (and the header) larger, and at most
// the shape's share of it where the payload is a column of number cells. No
// shape may come out larger than it did with every plane at the default
// level, so the extract's payload cannot grow unseen.
func TestCompressShapes(t *testing.T) {
	for _, s := range shapes(t) {
		comp, err := Compress(s.data)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		back, err := Decompress(comp)
		if err != nil || !bytes.Equal(back, s.data) {
			t.Fatalf("%s: round trip of %d bytes diverged: %v", s.name, len(s.data), err)
		}
		plain := len(plainDeflate(t, s.data))
		if limit := plain + plain/100 + compressHeader; len(comp) > limit {
			t.Errorf("%s: %d bytes compress to %d, plain DEFLATE to %d: over the limit of %d", s.name, len(s.data), len(comp), plain, limit)
		}
		if s.atMost < 1 && float64(len(comp)) > s.atMost*float64(plain) {
			t.Errorf("%s: %d bytes compress to %d, more than %.0f %% of plain DEFLATE's %d", s.name, len(s.data), len(comp), 100*s.atMost, plain)
		}
		if len(comp) > s.maxBytes {
			t.Errorf("%s: %d bytes compress to %d, more than the %d recorded", s.name, len(s.data), len(comp), s.maxBytes)
		}
		if testing.Verbose() && len(s.data) > 40 {
			t.Logf("%-26s raw %7d  plain %7d  planes %7d (stride %d, recorded %d)", s.name, len(s.data), plain, len(comp), comp[0], s.maxBytes)
		}
	}
}

// benchPayload is the benchmark's extract payload: 50 000 ints in
// [0, 10 000), pickled.
func benchPayload(tb testing.TB) []byte {
	return pickled(tb, params("column", script.NewIntList(benchInts(rand.New(rand.NewSource(1)), 50_000), nil)))
}

// shapeNamed is the data of one of shapes.
func shapeNamed(tb testing.TB, name string) []byte {
	tb.Helper()
	for _, s := range shapes(tb) {
		if s.name == name {
			return s.data
		}
	}
	tb.Fatalf("no shape %q", name)
	return nil
}

// TestPlanPicksAnEncoderPerPlane: on the benchmark's extract payload the two
// planes of the value's bytes are coded by Huffman alone, and the tag and
// zero planes by something cheaper than the default level. Decimal fractions
// stay as they are. A column whose nulls shift the cells, so that every
// plane asks for the default level, is written as one unflushed
// default-level stream, byte for byte what a single writer makes.
func TestPlanPicksAnEncoderPerPlane(t *testing.T) {
	raw := benchPayload(t)
	p, planes, err := new(coders).planFor(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 9 {
		t.Fatalf("benchmark payload planed at stride %d, want the 9-byte cell", len(p))
	}
	n, values := len(raw)/len(p), 0
	for i, e := range p {
		var seen [256]bool
		distinct := 0
		for _, b := range planes[i*n : (i+1)*n] {
			if !seen[b] {
				seen[b], distinct = true, distinct+1
			}
		}
		switch {
		case distinct > 16:
			values++
			if e != huffmanOnly {
				t.Errorf("plane %d (%d distinct bytes) coded by encoder %d, want Huffman only", i, distinct, e)
			}
		case e >= defaultLevel:
			t.Errorf("plane %d (%d distinct bytes) coded at the default level, want a cheaper encoder", i, distinct)
		}
	}
	if values != 2 {
		t.Errorf("%d planes of many values, want the value's high and low byte", values)
	}

	if p, _, err := new(coders).planFor(shapeNamed(t, "double-column-decimal")); err != nil || len(p) != 1 {
		t.Errorf("double-column-decimal planed at stride %d (%v), want 1", len(p), err)
	}

	nulls := shapeNamed(t, "integer-column-with-nulls")
	comp, err := Compress(nulls)
	if err != nil {
		t.Fatal(err)
	}
	stride := int(comp[0])
	want := compressedForm(comp[0], uint64(len(nulls)), plainDeflate(t, transpose(nil, nulls, stride)))
	if stride == 1 || !bytes.Equal(comp, want) {
		t.Errorf("integer-column-with-nulls: %d bytes at stride %d, want the %d of one default-level stream", len(comp), stride, len(want))
	}
}

// BenchmarkCompress is cmd/benchgate's compress-planes pair: the benchmark's
// extract payload through Compress and through plain DEFLATE at the default
// level.
func BenchmarkCompress(b *testing.B) {
	raw := benchPayload(b)
	b.Run("planes", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if _, err := Compress(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plain-deflate", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			plainDeflate(b, raw)
		}
	})
}

package transfer

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOptionsEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Options{
		{},
		{Compress: true},
		{Encrypt: true},
		{SampleSize: 1000, Seed: 42},
		{Compress: true, Encrypt: true, SampleSize: 5, Seed: -7},
	}
	for _, o := range cases {
		back, err := DecodeOptions(o.Encode())
		if err != nil {
			t.Fatalf("decode %q: %v", o.Encode(), err)
		}
		if back != o {
			t.Fatalf("round trip %+v -> %q -> %+v", o, o.Encode(), back)
		}
	}
}

func TestDecodeOptionsRejectsGarbage(t *testing.T) {
	for _, s := range []string{"x", "c", "c=1;zz=3", "s=abc", "q=1"} {
		if _, err := DecodeOptions(s); err == nil {
			t.Errorf("DecodeOptions(%q) should fail", s)
		}
	}
}

func TestCompressRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte("hello columnar world "), 1000)
	comp, err := Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(data) {
		t.Fatalf("repetitive data should compress: %d -> %d", len(data), len(comp))
	}
	back, err := Decompress(comp)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("round trip: %v", err)
	}
	if _, err := Decompress([]byte("not deflate")); err == nil {
		t.Fatal("garbage should fail to decompress")
	}
}

func TestEncryptRoundTrip(t *testing.T) {
	plain := []byte("sensitive rows from the patients table")
	enc, err := Encrypt("hunter2", 1, plain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(enc, []byte("sensitive")) {
		t.Fatal("ciphertext must not contain plaintext")
	}
	back, err := Decrypt("hunter2", enc)
	if err != nil || !bytes.Equal(back, plain) {
		t.Fatalf("round trip: %v", err)
	}
	wrong, err := Decrypt("wrong", enc)
	if err != nil {
		t.Fatal(err) // CTR always "succeeds" ...
	}
	if bytes.Equal(wrong, plain) {
		t.Fatal("... but the wrong password must yield garbage")
	}
	if _, err := Decrypt("x", []byte("short")); err == nil {
		t.Fatal("ciphertext shorter than IV should fail")
	}
}

func TestPackUnpackMatrix(t *testing.T) {
	payload := bytes.Repeat([]byte{1, 2, 3, 4, 5, 0, 0, 0}, 500)
	for _, o := range []Options{
		{},
		{Compress: true},
		{Encrypt: true, Seed: 9},
		{Compress: true, Encrypt: true, Seed: 9},
	} {
		packed, err := Pack(payload, "pw", o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		back, err := Unpack(packed, "pw")
		if err != nil || !bytes.Equal(back, payload) {
			t.Fatalf("%+v round trip failed: %v", o, err)
		}
	}
	// encrypted payload + wrong password fails (flate garbage or pickle
	// garbage downstream); with compress off the bytes differ
	packed, _ := Pack(payload, "pw", Options{Compress: true, Encrypt: true})
	if _, err := Unpack(packed, "other"); err == nil {
		t.Fatal("wrong password on compressed+encrypted payload should fail")
	}
	if _, err := Unpack([]byte{1}, "pw"); err == nil {
		t.Fatal("short payload should fail")
	}
}

func TestPackPropertyRoundTrip(t *testing.T) {
	f := func(payload []byte, compress, encrypt bool, seed int64) bool {
		o := Options{Compress: compress, Encrypt: encrypt, Seed: seed}
		packed, err := Pack(payload, "k", o)
		if err != nil {
			return false
		}
		back, err := Unpack(packed, "k")
		if err != nil {
			return false
		}
		return bytes.Equal(back, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleIndexes(t *testing.T) {
	idx := SampleIndexes(100, 10, 42)
	if len(idx) != 10 {
		t.Fatalf("len: %d", len(idx))
	}
	seen := map[int]bool{}
	last := -1
	for _, i := range idx {
		if i < 0 || i >= 100 || seen[i] || i <= last {
			t.Fatalf("bad sample: %v", idx)
		}
		seen[i] = true
		last = i
	}
	// deterministic
	idx2 := SampleIndexes(100, 10, 42)
	for i := range idx {
		if idx[i] != idx2[i] {
			t.Fatal("sampling must be deterministic per seed")
		}
	}
	// different seeds differ (overwhelmingly likely)
	idx3 := SampleIndexes(100, 10, 43)
	same := true
	for i := range idx {
		if idx[i] != idx3[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should sample differently")
	}
	// k >= n returns everything
	all := SampleIndexes(5, 10, 1)
	if len(all) != 5 {
		t.Fatalf("k>=n: %v", all)
	}
	if got := SampleIndexes(5, 0, 1); len(got) != 5 {
		t.Fatalf("k=0 means all: %v", got)
	}
}

func TestSampleUniformity(t *testing.T) {
	// Each row should be chosen roughly k/n of the time.
	const n, k, trials = 50, 10, 2000
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		for _, i := range SampleIndexes(n, k, int64(trial)) {
			counts[i]++
		}
	}
	want := float64(trials) * float64(k) / float64(n)
	for i, c := range counts {
		if float64(c) < want*0.6 || float64(c) > want*1.4 {
			t.Fatalf("row %d chosen %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestCompressionActuallyHelpsOnColumnData(t *testing.T) {
	// Sorted integer columns (the demo's CSV numbers) compress well.
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	v := 0
	for i := 0; i < 10000; i++ {
		v += rng.Intn(3)
		sb.WriteString(strings.Repeat(" ", 0))
		sb.WriteByte(byte('0' + v%10))
	}
	data := []byte(sb.String())
	comp, err := Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(comp)) > 0.5*float64(len(data)) {
		t.Fatalf("expected >2x compression on low-entropy data: %d -> %d", len(data), len(comp))
	}
}

// parentPayloads are Pack's output at the commit before Compress byte-planed
// (header bytes 0 and 1 only), recorded there: the pickle of
// {"column": [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8]} under password "s3cret",
// seed 7. A payload from a server of that vintage must still unpack.
var parentPayloads = map[string]string{
	"verbatim":         "0000504b4c3109000000010500000006636f6c756d6e070000000c030000000000000003030000000000000001030000000000000004030000000000000001030000000000000005030000000000000009030000000000000002030000000000000006030000000000000005030000000000000003030000000000000005030000000000000008",
	"compress":         "01000af0f631e46460606064656060604bcecf29cdcd63676060e06166800066188311c660c11061853138610c2618830d430d33860807200000ffff",
	"encrypt":          "000162178e70d7ba4a645cf8302002169e54b34950aadb3b65f15e9890397127c106ee0ef5ee6370e8bf3f2cd4e50273f004f06f3b7832461f8ff9b3296c10f75300b1ecadc582e89f13c7aa6513d4212f33df8b212aec48da2604c0fd5a5ef9394fe1c9761098a2df7fa5dc02a07527e1a9f5c00f81d03a87206c0f556c2238b12f134b9985ba426913248c49d4c5cf2a6d90b0db3a2c",
	"compress+encrypt": "0101b4d8938ead4218e4481bc15dc50c9961c8c3ec29f452997f9c6b066be5c8cbcd6ab494ea054c26fd690ef5c40e614b2cff49e2c52caecfe6feebc77e54ef4dff11c1883b16a6bafbf0f8",
}

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestUnpackReadsParentPayloads(t *testing.T) {
	want := unhex(t, parentPayloads["verbatim"])[2:]
	for name, h := range parentPayloads {
		got, err := Unpack(unhex(t, h), "s3cret")
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: unpacked %x (%v), want %x", name, got, err, want)
		}
	}
}

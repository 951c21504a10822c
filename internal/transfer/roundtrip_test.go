package transfer

import (
	"bytes"
	"math"
	"math/rand"
	"regexp"
	"testing"

	"repro/internal/core"
)

// payloads returns a spread of adversarial payload shapes: empty, tiny,
// highly compressible, incompressible random bytes, and
// all-possible-byte-values.
func payloads() map[string][]byte {
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 64*1024)
	rng.Read(random)
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	return map[string][]byte{
		"empty":        {},
		"one":          {0x42},
		"compressible": bytes.Repeat([]byte("devudf "), 10_000),
		"random":       random,
		"allbytes":     all,
	}
}

// TestPackUnpackProperty round-trips every payload shape through every
// option combination and checks byte-exact recovery.
func TestPackUnpackProperty(t *testing.T) {
	for name, payload := range payloads() {
		for _, compress := range []bool{false, true} {
			for _, encrypt := range []bool{false, true} {
				o := Options{Compress: compress, Encrypt: encrypt, Seed: 99}
				packed, err := Pack(payload, "s3cret", o)
				if err != nil {
					t.Fatalf("%s c=%v e=%v: pack: %v", name, compress, encrypt, err)
				}
				got, err := Unpack(packed, "s3cret")
				if err != nil {
					t.Fatalf("%s c=%v e=%v: unpack: %v", name, compress, encrypt, err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("%s c=%v e=%v: round trip diverged (%d vs %d bytes)",
						name, compress, encrypt, len(got), len(payload))
				}
				if encrypt && len(payload) >= 16 && bytes.Contains(packed, payload) {
					t.Fatalf("%s: encrypted payload contains plaintext", name)
				}
			}
		}
	}
}

// TestUnpackWrongKey asserts that decrypting with the wrong password never
// silently yields the plaintext: compressed payloads fail to inflate, and
// plain encrypted payloads come back as garbage, not the original.
func TestUnpackWrongKey(t *testing.T) {
	payload := bytes.Repeat([]byte("sensitive row data "), 1000)
	packed, err := Pack(payload, "right-password", Options{Compress: true, Encrypt: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unpack(packed, "wrong-password"); err == nil {
		t.Fatal("compressed+encrypted payload unpacked with the wrong key")
	}
	// Without compression there is no integrity check, but the bytes must
	// not match the plaintext.
	packed, err = Pack(payload, "right-password", Options{Encrypt: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(packed, "wrong-password")
	if err == nil && bytes.Equal(got, payload) {
		t.Fatal("wrong key recovered the plaintext")
	}
}

// TestUnpackTruncated feeds every truncation of a packed payload to Unpack:
// it must return an error or garbage, never panic, and short headers must
// be rejected outright.
func TestUnpackTruncated(t *testing.T) {
	payload := bytes.Repeat([]byte("abcdefgh"), 512)
	for _, o := range []Options{
		{},
		{Compress: true},
		{Encrypt: true, Seed: 1},
		{Compress: true, Encrypt: true, Seed: 1},
	} {
		packed, err := Pack(payload, "pw", o)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < len(packed); k++ {
			got, err := Unpack(packed[:k], "pw")
			if err == nil && bytes.Equal(got, payload) {
				t.Fatalf("options %+v: truncation to %d bytes still round-tripped", o, k)
			}
		}
		// Corrupt header bits must not panic either.
		for _, hdr := range [][]byte{{2, 2}, {255, 0}, {1}} {
			bad := append(append([]byte{}, hdr...), packed[2:]...)
			_, _ = Unpack(bad, "pw")
		}
	}
}

// TestOptionsEncodeDecodeProperty round-trips option combinations through
// the SQL literal encoding, including adversarial decode inputs. The
// encoding is spliced into a quoted SQL string literal by RewriteToExtract,
// so it must stay inside a quote-free alphabet for every seed.
func TestOptionsEncodeDecodeProperty(t *testing.T) {
	literalSafe := regexp.MustCompile(`^[a-z0-9=;-]*$`)
	for _, o := range []Options{
		{},
		{Compress: true},
		{Encrypt: true},
		{Compress: true, Encrypt: true, SampleSize: 12345, Seed: -987654321},
		{SampleSize: 1 << 30, Seed: 1 << 40},
		{Seed: math.MinInt64},
		{Seed: math.MaxInt64},
		{Seed: -1},
	} {
		if enc := o.Encode(); !literalSafe.MatchString(enc) {
			t.Fatalf("%+v encodes as %q, which is not safe inside a SQL string literal", o, enc)
		}
		got, err := DecodeOptions(o.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		if got != o {
			t.Fatalf("options round trip: %+v vs %+v", got, o)
		}
	}
	for _, bad := range []string{
		"c", "c=1;e=1;s=;r=0", "c=1;e=1;s=x;r=0",
		"x=1;e=1;s=1;r=0", "c=1;e=1;s=1;r=0;junk",
		"c=1;e=1;s=99999999999999999999;r=0",
		"c=1;e=1;s=1;r=-9223372036854775809",
	} {
		if _, err := DecodeOptions(bad); core.KindOf(err) != core.KindProtocol {
			t.Errorf("DecodeOptions(%q) = %v, want a protocol error", bad, err)
		}
	}
}

// TestSampleIndexesProperty checks the sampler's contract: correct size,
// strictly ascending unique in-range indexes, determinism per seed, and
// seed sensitivity.
func TestSampleIndexesProperty(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{0, 0}, {1, 0}, {5, 5}, {5, 50}, {100, 1}, {100, 37}, {10_000, 100},
	} {
		got := SampleIndexes(tc.n, tc.k, 42)
		wantLen := tc.k
		if tc.k <= 0 || tc.k >= tc.n {
			wantLen = tc.n
		}
		if len(got) != wantLen {
			t.Fatalf("n=%d k=%d: %d indexes", tc.n, tc.k, len(got))
		}
		for i, idx := range got {
			if idx < 0 || idx >= tc.n {
				t.Fatalf("n=%d k=%d: index %d out of range", tc.n, tc.k, idx)
			}
			if i > 0 && got[i-1] >= idx {
				t.Fatalf("n=%d k=%d: indexes not strictly ascending at %d", tc.n, tc.k, i)
			}
		}
		again := SampleIndexes(tc.n, tc.k, 42)
		for i := range got {
			if got[i] != again[i] {
				t.Fatalf("n=%d k=%d: sampling not deterministic", tc.n, tc.k)
			}
		}
	}
	a := SampleIndexes(10_000, 100, 1)
	b := SampleIndexes(10_000, 100, 2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical samples")
	}
}

package transfer

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/script"
)

// compressedForm forges Compress's output: a stride, a declared raw length,
// and whatever stream follows.
func compressedForm(stride byte, rawLen uint64, stream []byte) []byte {
	return append(binary.AppendUvarint([]byte{stride}, rawLen), stream...)
}

// allocated is how many bytes f allocates, everything counted.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// refused requires a KindProtocol error from Decompress and from Unpack
// (plain and under encryption) for one forged compressed form, and returns
// what Decompress allocated on the way.
func refused(t *testing.T, name string, forged []byte) uint64 {
	t.Helper()
	var err error
	cost := allocated(func() { _, err = Decompress(forged) })
	if core.KindOf(err) != core.KindProtocol {
		t.Errorf("%s: Decompress = %v, want a protocol error", name, err)
	}
	if _, err := Unpack(append([]byte{formPlanes, 0}, forged...), "pw"); core.KindOf(err) != core.KindProtocol {
		t.Errorf("%s: Unpack = %v, want a protocol error", name, err)
	}
	enc, err := Encrypt("pw", 1, forged)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unpack(append([]byte{formPlanes, 1}, enc...), "pw"); core.KindOf(err) != core.KindProtocol {
		t.Errorf("%s: Unpack of the encrypted form = %v, want a protocol error", name, err)
	}
	return cost
}

// TestDecompressRefusesBombsAndForgeries: the header of a compressed payload
// is a claim, checked against the bytes that arrived before it sizes
// anything. Before the payload declared its length none of this could be
// refused: 64 KiB of deflated zeros simply inflated to 64 MiB.
func TestDecompressRefusesBombsAndForgeries(t *testing.T) {
	const kib, mib = 1 << 10, 1 << 20
	zeros := plainDeflate(t, make([]byte, 64*mib))
	if len(zeros) > 80*kib {
		t.Fatalf("64 MiB of zeros deflate to %d bytes", len(zeros))
	}
	honest := bytes.Repeat([]byte("devudf "), 100)
	stream := plainDeflate(t, honest)

	// (a) a bomb under a modest header: read 1 KiB, see one byte more, stop
	if cost := refused(t, "bomb declaring 1 KiB", compressedForm(1, kib, zeros)); cost > mib {
		t.Errorf("refusing a 64 MiB bomb that declares 1 KiB allocated %d bytes", cost)
	}
	// (b) a claim no stream of that size can honour: nothing is allocated
	if cost := refused(t, "100 bytes declaring 512 MiB", compressedForm(1, 512*mib, zeros[:100])); cost > 4*kib {
		t.Errorf("refusing 512 MiB declared over 100 bytes allocated %d bytes", cost)
	}
	// (c) lengths: over the ceiling, absurd, one short, one long
	for name, n := range map[string]uint64{
		"ceiling + 1":        maxRawLen + 1,
		"MaxUint64":          math.MaxUint64,
		"one less than true": uint64(len(honest)) - 1,
		"one more than true": uint64(len(honest)) + 1,
	} {
		if cost := refused(t, name, compressedForm(1, n, stream)); cost > mib {
			t.Errorf("%s: refusing allocated %d bytes", name, cost)
		}
	}
	// the ceiling itself passes the ceiling check: it is the ratio check that stops it
	refused(t, "ceiling over a short stream", compressedForm(1, maxRawLen, stream))
	// (d) strides no Compress writes
	refused(t, "stride 0", compressedForm(0, uint64(len(honest)), stream))
	refused(t, "stride 255 over 10 bytes", compressedForm(255, 10, plainDeflate(t, honest[:10])))
	refused(t, "stride 9 over 5 bytes", compressedForm(9, 5, plainDeflate(t, honest[:5])))
	// (e) bytes after the stream's end
	refused(t, "trailing byte", compressedForm(1, uint64(len(honest)), append(bytes.Clone(stream), 0)))
	// and the pieces that are not there at all
	refused(t, "empty", nil)
	refused(t, "stride only", []byte{1})
	refused(t, "unterminated length", []byte{1, 0x80, 0x80})
	refused(t, "no stream", compressedForm(1, 0, nil))

	// the honest form of all of the above is accepted
	got, err := Decompress(compressedForm(1, uint64(len(honest)), stream))
	if err != nil || !bytes.Equal(got, honest) {
		t.Fatalf("honest payload refused: %v", err)
	}
}

// TestDecompressMemoryFollowsWhatArrived: an honest payload of the
// benchmark's size inflates into one buffer sized by its header, not into a
// buffer regrown a dozen times; a large one grows past the preallocation cap
// only as bytes really inflate.
func TestDecompressMemoryFollowsWhatArrived(t *testing.T) {
	raw := pickled(t, params("column", script.NewIntList(benchInts(rand.New(rand.NewSource(1)), 50_000), nil)))
	comp, err := Compress(raw)
	if err != nil {
		t.Fatal(err)
	}
	if comp[0] != 9 {
		t.Fatalf("stride %d for 9-byte records", comp[0])
	}
	var got []byte
	cost := allocated(func() { got, err = Decompress(comp) })
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("round trip: %v", err)
	}
	// the planes, the untransposed output, and flate's reader (~45 KiB)
	if limit := uint64(2*len(raw) + 128<<10); cost > limit {
		t.Errorf("decompressing %d bytes allocated %d, want <= %d", len(raw), cost, limit)
	}

	big := make([]byte, 3*inflatePrealloc+12345)
	for i := range big {
		big[i] = byte(i >> 12)
	}
	if comp, err = Compress(big); err != nil {
		t.Fatal(err)
	}
	if got, err = Decompress(comp); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("round trip past the preallocation cap: %v", err)
	}
}

// TestUnpackRefusesUnknownHeader: a header byte is one of the forms Pack
// has ever written. Anything else used to read as "not compressed" and hand
// the caller the bytes as they were.
func TestUnpackRefusesUnknownHeader(t *testing.T) {
	for _, hdr := range [][2]byte{{3, 0}, {255, 0}, {0, 2}, {2, 255}} {
		if _, err := Unpack(append(hdr[:], "payload"...), "pw"); core.KindOf(err) != core.KindProtocol {
			t.Errorf("header %v: %v, want a protocol error", hdr, err)
		}
	}
}

// TestUnpackReturnsTheCallersBytes: whatever the options, writing to what
// Unpack returned does not reach the packed bytes it was given.
func TestUnpackReturnsTheCallersBytes(t *testing.T) {
	payload := bytes.Repeat([]byte("abcdefgh"), 64)
	for _, o := range []Options{{}, {Compress: true}, {Encrypt: true}, {Compress: true, Encrypt: true}} {
		packed, err := Pack(payload, "pw", o)
		if err != nil {
			t.Fatal(err)
		}
		before := bytes.Clone(packed)
		got, err := Unpack(packed, "pw")
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			got[i] ^= 0xFF
		}
		if !bytes.Equal(packed, before) {
			t.Errorf("%+v: writing to the unpacked bytes changed the packed ones", o)
		}
	}
}

// FuzzUnpack feeds arbitrary bytes to the one decoder here that reads them
// off a socket. Unpack must not panic and must refuse with a protocol error
// or not at all; and the same bytes taken as a payload must come back
// exactly from Pack and Unpack under every option set.
func FuzzUnpack(f *testing.F) {
	for _, h := range parentPayloads {
		f.Add(unhex(f, h))
	}
	for _, s := range shapes(f) {
		if len(s.data) > 4<<10 {
			s.data = s.data[:4<<10] // a fuzz seed is mutated whole: keep it small
		}
		for _, o := range fuzzOptions {
			packed, err := Pack(s.data, "pw", o)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(packed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := Unpack(data, "pw"); err != nil && core.KindOf(err) != core.KindProtocol {
			t.Fatalf("Unpack refused with a %v error: %v", core.KindOf(err), err)
		}
		for _, o := range fuzzOptions {
			packed, err := Pack(data, "pw", o)
			if err != nil {
				t.Fatalf("%+v: %v", o, err)
			}
			back, err := Unpack(packed, "pw")
			if err != nil || !bytes.Equal(back, data) {
				t.Fatalf("%+v: %d bytes did not round-trip: %v", o, len(data), err)
			}
		}
	})
}

var fuzzOptions = []Options{{}, {Compress: true}, {Encrypt: true, Seed: 7}, {Compress: true, Encrypt: true, Seed: 7}}

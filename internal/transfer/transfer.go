// Package transfer implements the data-transfer options the devUDF settings
// window exposes (paper §2.1–2.2): payload compression, encryption keyed by
// the database user's password, and uniform random sampling. The server-side
// extract function applies them before data leaves the database; the client
// reverses them.
//
// A packed payload is, in order: byte-planed, DEFLATEd, encrypted. The
// planes are what makes DEFLATE worth its time on a column: a pickled
// INTEGER or DOUBLE column is a run of 9-byte cells whose redundancy lies
// between the same byte of neighbouring cells, so Compress lays the payload
// out as nine runs of like bytes first. Nobody tells it the 9: the stride is
// read off the data (detectStride) and written into the compressed form,
// along with the raw length Decompress holds the stream to.
package transfer

import (
	"bytes"
	"compress/flate"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Options selects the transfer transformations for one extraction. The zero
// value transfers everything verbatim.
type Options struct {
	// Compress applies DEFLATE to the payload.
	Compress bool
	// Encrypt applies AES-CTR with a key derived from the user's password
	// (paper §2.2: "the data is encrypted ... using the password of the
	// database user as a key").
	Encrypt bool
	// SampleSize, when > 0, uniformly samples that many rows server-side
	// before extraction. 0 means the full input.
	SampleSize int
	// Seed makes sampling reproducible. The engine threads a fixed seed
	// through benches and tests.
	Seed int64
}

// Encode renders options as the compact string literal the rewritten SQL
// carries into sys_extract.
func (o Options) Encode() string {
	buf := make([]byte, 0, 32)
	b2i := func(b bool) byte {
		if b {
			return '1'
		}
		return '0'
	}
	buf = append(buf, "c="...)
	buf = append(buf, b2i(o.Compress), ';')
	buf = append(buf, "e="...)
	buf = append(buf, b2i(o.Encrypt), ';')
	buf = append(buf, "s="...)
	buf = strconv.AppendInt(buf, int64(o.SampleSize), 10)
	buf = append(buf, ';')
	buf = append(buf, "r="...)
	buf = strconv.AppendInt(buf, o.Seed, 10)
	return string(buf)
}

// DecodeOptions parses the literal produced by Encode.
func DecodeOptions(s string) (Options, error) {
	var o Options
	rest := s
	for len(rest) > 0 {
		var seg string
		seg, rest, _ = strings.Cut(rest, ";")
		if len(seg) < 2 || seg[1] != '=' {
			return o, core.Errorf(core.KindProtocol, "bad extract options segment %q", seg)
		}
		val := seg[2:]
		switch seg[0] {
		case 'c':
			o.Compress = val == "1"
		case 'e':
			o.Encrypt = val == "1"
		case 's', 'r':
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return o, core.Wrapf(core.KindProtocol, err, "bad integer in extract options: %v", err)
			}
			if seg[0] == 's' {
				o.SampleSize = int(n)
			} else {
				o.Seed = n
			}
		default:
			return o, core.Errorf(core.KindProtocol, "unknown extract option %q", seg)
		}
	}
	return o, nil
}

const (
	// maxRawLen is the largest payload Compress accepts and the largest raw
	// length Decompress believes. It is to an inflated payload what the
	// 64 MiB frame cap is to a wire frame: fixed, and checked before anything
	// is allocated.
	maxRawLen = 1 << 30
	// maxStride bounds the record widths detectStride tries.
	maxStride = 16
	// strideSample is how much of a payload detectStride reads, in
	// strideWindows pieces.
	strideSample  = 8 << 10
	strideWindows = 4
	// deflateMaxRatio is the most DEFLATE can expand: a 258-byte match in
	// two bits of a fixed-Huffman block.
	deflateMaxRatio = 1032
	// inflatePrealloc is the most Decompress allocates on a header's word;
	// past it the buffer grows only as bytes really inflate.
	inflatePrealloc = 4 << 20
)

// sampleOf draws strideWindows evenly spaced windows out of data, so a
// payload of several columns is judged by more than its first.
func sampleOf(data []byte) []byte {
	if len(data) <= strideSample {
		return data
	}
	const window = strideSample / strideWindows
	sample := make([]byte, 0, strideSample)
	for w := 0; w < strideWindows; w++ {
		at := (len(data) - window) / (strideWindows - 1) * w
		sample = append(sample, data[at:at+window]...)
	}
	return sample
}

// likelyStride reads a record width off the sample: the distance in
// 1..maxStride at which a byte most often equals the byte that far before
// it. A column of fixed-width cells (the pickle's tag + 8 bytes) answers with
// its cell width; text and dense bytes answer 1, which also wins every tie.
func likelyStride(sample []byte) int {
	var matches [maxStride + 1]int
	for i := maxStride; i < len(sample); i++ {
		b := sample[i]
		for s := 1; s <= maxStride; s++ {
			if sample[i-s] == b {
				matches[s]++
			}
		}
	}
	best := 1
	for s := 2; s <= maxStride; s++ {
		if matches[s] > matches[best] {
			best = s
		}
	}
	return best
}

// detectStride is the stride Compress byte-planes data at: the sample's
// likely record width if w really deflates the sample's planes to fewer bytes
// than the sample as it is, and 1 otherwise. Equal bytes at a distance are
// necessary, not sufficient — cells of decimal fractions repeat inside
// themselves, and planes would cut that up.
func detectStride(data []byte, w *flate.Writer) (int, error) {
	sample := sampleOf(data)
	stride := likelyStride(sample)
	if stride == 1 {
		return 1, nil
	}
	planes, err := deflatedLen(w, transpose(sample, stride))
	if err != nil {
		return 0, err
	}
	plain, err := deflatedLen(w, sample)
	if err != nil || planes >= plain {
		return 1, err
	}
	return stride, nil
}

// deflatedLen is how many bytes w makes of data.
func deflatedLen(w *flate.Writer, data []byte) (int, error) {
	var n countWriter
	w.Reset(&n)
	if _, err := w.Write(data); err != nil {
		return 0, err
	}
	return int(n), w.Close()
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// transpose lays stride-byte records out as byte planes: plane p holds byte p
// of every record, and the len%stride tail follows verbatim. Stride 1 is the
// identity.
func transpose(data []byte, stride int) []byte {
	if stride == 1 {
		return data
	}
	out := make([]byte, len(data))
	n := len(data) / stride
	for p := 0; p < stride; p++ {
		plane := out[p*n : (p+1)*n]
		for r, i := 0, p; r < n; r, i = r+1, i+stride {
			plane[r] = data[i]
		}
	}
	copy(out[n*stride:], data[n*stride:])
	return out
}

// untranspose reverses transpose.
func untranspose(planes []byte, stride int) []byte {
	if stride == 1 {
		return planes
	}
	out := make([]byte, len(planes))
	n := len(planes) / stride
	for p := 0; p < stride; p++ {
		plane := planes[p*n : (p+1)*n]
		for r, i := 0, p; r < n; r, i = r+1, i+stride {
			out[i] = plane[r]
		}
	}
	copy(out[n*stride:], planes[n*stride:])
	return out
}

// Compress byte-planes data at the stride it detects and DEFLATEs the planes
// at the default level. The result describes itself: the stride (one byte),
// the raw length (uvarint), the DEFLATE stream.
func Compress(data []byte) ([]byte, error) { return appendCompressed(nil, data) }

// appendCompressed appends Compress(data) to dst.
func appendCompressed(dst, data []byte) ([]byte, error) {
	if len(data) > maxRawLen {
		return nil, core.Errorf(core.KindResource, "payload of %d bytes exceeds the %d-byte transfer limit", len(data), maxRawLen)
	}
	w, err := flate.NewWriter(nil, flate.DefaultCompression)
	if err != nil {
		return nil, core.Wrapf(core.KindIO, err, "flate: %v", err)
	}
	stride, err := detectStride(data, w)
	if err != nil {
		return nil, core.Wrapf(core.KindIO, err, "flate: %v", err)
	}
	dst = append(dst, byte(stride))
	dst = binary.AppendUvarint(dst, uint64(len(data)))
	buf := bytes.NewBuffer(dst)
	w.Reset(buf)
	if _, err := w.Write(transpose(data, stride)); err != nil {
		return nil, core.Wrapf(core.KindIO, err, "flate: %v", err)
	}
	if err := w.Close(); err != nil {
		return nil, core.Wrapf(core.KindIO, err, "flate: %v", err)
	}
	return buf.Bytes(), nil
}

// Decompress reverses Compress. What the header claims is checked against
// what arrived before anything is allocated, and the stream must inflate to
// exactly the declared length.
func Decompress(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, core.Errorf(core.KindProtocol, "corrupt compressed payload: no header")
	}
	stride := uint64(data[0])
	rawLen, k := binary.Uvarint(data[1:])
	if k <= 0 {
		return nil, core.Errorf(core.KindProtocol, "corrupt compressed payload: bad length")
	}
	stream := data[1+k:]
	switch {
	case stride == 0 || stride > maxStride || (stride > 1 && stride > rawLen):
		return nil, core.Errorf(core.KindProtocol, "corrupt compressed payload: stride %d over %d bytes", stride, rawLen)
	case rawLen > maxRawLen:
		return nil, core.Errorf(core.KindProtocol, "compressed payload declares %d bytes, over the %d-byte transfer limit", rawLen, maxRawLen)
	case rawLen > deflateMaxRatio*uint64(len(stream)):
		return nil, core.Errorf(core.KindProtocol, "compressed payload declares %d bytes, more than %d compressed bytes can hold", rawLen, len(stream))
	}
	planes, err := inflate(stream, int(rawLen))
	if err != nil {
		return nil, err
	}
	return untranspose(planes, int(stride)), nil
}

// inflate reads exactly n bytes out of a DEFLATE stream that must end there,
// and with it the input.
func inflate(stream []byte, n int) ([]byte, error) {
	src := bytes.NewReader(stream) // a ByteReader: flate takes no byte it does not use
	r := flate.NewReader(src)
	out := make([]byte, 0, min(n, inflatePrealloc))
	for len(out) < n {
		if len(out) == cap(out) {
			out = slices.Grow(out, min(len(out), n-len(out)))
		}
		m, err := r.Read(out[len(out):min(cap(out), n)])
		out = out[:len(out)+m]
		if err == io.EOF && len(out) < n {
			return nil, core.Errorf(core.KindProtocol, "corrupt compressed payload: %d bytes where %d were declared", len(out), n)
		}
		if err != nil && err != io.EOF {
			return nil, core.Wrapf(core.KindProtocol, err, "corrupt compressed payload: %v", err)
		}
	}
	var one [1]byte
	if m, err := r.Read(one[:]); m != 0 {
		return nil, core.Errorf(core.KindProtocol, "corrupt compressed payload: more than the %d bytes declared", n)
	} else if err != io.EOF {
		return nil, core.Wrapf(core.KindProtocol, err, "corrupt compressed payload: %v", err)
	}
	if src.Len() != 0 {
		return nil, core.Errorf(core.KindProtocol, "corrupt compressed payload: %d bytes after the stream", src.Len())
	}
	return out, nil
}

// inflateLegacy reads what Compress wrote before the payload described
// itself: a bare DEFLATE stream of unknown length. Only Unpack's header byte
// 1 leads here.
func inflateLegacy(stream []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(stream))
	out, err := io.ReadAll(io.LimitReader(r, maxRawLen+1))
	if err != nil {
		return nil, core.Wrapf(core.KindProtocol, err, "corrupt compressed payload: %v", err)
	}
	if len(out) > maxRawLen {
		return nil, core.Errorf(core.KindProtocol, "compressed payload inflates past the %d-byte transfer limit", maxRawLen)
	}
	return out, nil
}

// DeriveKey turns the database user's password into an AES-256 key.
func DeriveKey(password string) []byte {
	sum := sha256.Sum256([]byte("devudf-transfer-v1:" + password))
	return sum[:]
}

// Encrypt applies AES-CTR with a random IV prepended to the ciphertext. The
// IV is drawn from the provided seed source so tests are reproducible; the
// secrecy of CTR mode rests on the key and IV uniqueness per payload, which
// a seeded sequence provides within a session.
func Encrypt(password string, seed int64, plaintext []byte) ([]byte, error) {
	return appendEncrypted(nil, password, seed, plaintext)
}

// appendEncrypted appends Encrypt(password, seed, plaintext) to dst.
func appendEncrypted(dst []byte, password string, seed int64, plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(DeriveKey(password))
	if err != nil {
		return nil, core.Wrapf(core.KindIO, err, "aes: %v", err)
	}
	rng := rand.New(rand.NewSource(seed ^ int64(len(plaintext))*0x9E3779B9))
	out := slices.Grow(dst, aes.BlockSize+len(plaintext))[:len(dst)+aes.BlockSize+len(plaintext)]
	iv := out[len(dst) : len(dst)+aes.BlockSize]
	for i := range iv {
		iv[i] = byte(rng.Intn(256))
	}
	cipher.NewCTR(block, iv).XORKeyStream(out[len(dst)+aes.BlockSize:], plaintext)
	return out, nil
}

// Decrypt reverses Encrypt.
func Decrypt(password string, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < aes.BlockSize {
		return nil, core.Errorf(core.KindProtocol, "ciphertext shorter than IV")
	}
	block, err := aes.NewCipher(DeriveKey(password))
	if err != nil {
		return nil, core.Wrapf(core.KindIO, err, "aes: %v", err)
	}
	out := make([]byte, len(ciphertext)-aes.BlockSize)
	cipher.NewCTR(block, ciphertext[:aes.BlockSize]).XORKeyStream(out, ciphertext[aes.BlockSize:])
	return out, nil
}

// The first byte of a packed payload says how its body was compressed.
const (
	formVerbatim byte = 0 // not compressed
	formDeflate  byte = 1 // a bare DEFLATE stream: what servers before the planes wrote, read only
	formPlanes   byte = 2 // Compress's output
)

// Pack applies the selected transformations to a payload, in order:
// compress, then encrypt. A two-byte header — the compressed form, then 1
// if encrypted — makes Unpack self-describing.
func Pack(payload []byte, password string, o Options) ([]byte, error) {
	hdr := []byte{formVerbatim, 0}
	if o.Compress {
		hdr[0] = formPlanes
	}
	if o.Encrypt {
		hdr[1] = 1
	}
	switch {
	case o.Compress && o.Encrypt:
		comp, err := Compress(payload)
		if err != nil {
			return nil, err
		}
		return appendEncrypted(hdr, password, o.Seed, comp)
	case o.Compress:
		return appendCompressed(hdr, payload)
	case o.Encrypt:
		return appendEncrypted(hdr, password, o.Seed, payload)
	}
	return append(hdr, payload...), nil
}

// Unpack reverses Pack. The bytes it returns are the caller's.
func Unpack(packed []byte, password string) ([]byte, error) {
	if len(packed) < 2 {
		return nil, core.Errorf(core.KindProtocol, "payload too short")
	}
	form, encrypted := packed[0], packed[1]
	if form > formPlanes || encrypted > 1 {
		return nil, core.Errorf(core.KindProtocol, "unknown payload header %d %d", form, encrypted)
	}
	payload := packed[2:]
	if encrypted == 1 {
		var err error
		if payload, err = Decrypt(password, payload); err != nil {
			return nil, err
		}
	}
	switch form {
	case formPlanes:
		return Decompress(payload)
	case formDeflate:
		return inflateLegacy(payload)
	}
	if encrypted == 0 {
		payload = slices.Clone(payload) // still the caller's packed bytes
	}
	return payload, nil
}

// SampleIndexes draws a uniform random sample (without replacement) of k
// row indexes from n rows, in ascending order. k >= n returns all rows.
func SampleIndexes(n, k int, seed int64) []int {
	if k <= 0 || k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	// Floyd's algorithm
	chosen := make(map[int]bool, k)
	for j := n - k; j < n; j++ {
		t := rng.Intn(j + 1)
		if chosen[t] {
			chosen[j] = true
		} else {
			chosen[t] = true
		}
	}
	out := make([]int, 0, k)
	for i := 0; i < n; i++ {
		if chosen[i] {
			out = append(out, i)
		}
	}
	return out
}

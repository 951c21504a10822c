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
// read off the data (likelyStride) and written into the compressed form,
// along with the raw length Decompress holds the stream to.
//
// The planes are not alike, and neither is what codes them. The DEFLATE
// stream is a run of segments, each written by the encoder a sample of its
// planes picked (planFor): Huffman coding alone for a plane of spread-out
// values, BestSpeed for a plane of one value or a few, the default level
// where long matches pay. A segment begins on a byte boundary and refers to
// nothing before it, so the segments read as one stream: the compressed form
// is the one Decompress has always read.
//
// Nothing in a segment depends on another, and nothing in a plane's trials
// on another plane, so Compress codes them concurrently, on up to GOMAXPROCS
// workers, and joins the segments in plan order: the bytes are those one
// writer makes segment after segment. With one P it starts no goroutine.
package transfer

import (
	"bytes"
	"compress/flate"
	"crypto/aes"
	"crypto/cipher"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Options selects the transfer transformations for one extraction. The zero
// value transfers everything verbatim.
type Options struct {
	// Compress byte-planes the payload and DEFLATEs each plane with the
	// encoder it needs (see Compress).
	Compress bool
	// Encrypt applies AES-CTR with a key derived from the user's password
	// (paper §2.2: "the data is encrypted ... using the password of the
	// database user as a key").
	Encrypt bool
	// SampleSize, when > 0, uniformly samples that many rows server-side
	// before extraction. 0 means the full input; sys_extract refuses a
	// negative size.
	SampleSize int
	// Seed makes sampling reproducible. The engine threads a fixed seed
	// through benches and tests.
	Seed int64
}

const (
	// maxRawLen is the largest payload Compress accepts and the largest raw
	// length Decompress believes. It is to an inflated payload what the
	// 64 MiB frame cap is to a wire frame: fixed, and checked before anything
	// is allocated.
	maxRawLen = 1 << 30
	// maxStride bounds the record widths likelyStride tries.
	maxStride = 16
	// strideSample is how much of a payload Compress's trials read, in
	// sampleWindows pieces: the payload as it is, and each plane its share.
	strideSample  = 8 << 10
	sampleWindows = 4
	// deflateMaxRatio is the most DEFLATE can expand: a 258-byte match in
	// two bits of a fixed-Huffman block.
	deflateMaxRatio = 1032
	// inflatePrealloc is the most Decompress allocates on a header's word;
	// past it the buffer grows only as bytes really inflate.
	inflatePrealloc = 4 << 20
	// maxPooledBytes is the most buffer memory a Compress hands on to the
	// next.
	maxPooledBytes = 16 << 20
)

// sampleOf copies into dst sampleWindows evenly spaced windows, size bytes
// in all, of plane p of data's stride-byte records, read where the plane's
// bytes lie in data, so a payload of several columns is judged by more than
// its first. A plane of at most size bytes is its own sample; at stride 1 the
// plane is data.
func sampleOf(dst, data []byte, stride, p, size int) []byte {
	n := len(data) / stride
	windows, window, step := 1, n, 0
	if n > size {
		windows, window = sampleWindows, size/sampleWindows
		step = (n - window) / (sampleWindows - 1)
	}
	dst = dst[:0]
	for w := 0; w < windows; w++ {
		for r := w * step; r < w*step+window; r++ {
			dst = append(dst, data[r*stride+p])
		}
	}
	return dst
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

// An encoder is one way of writing a plane into the DEFLATE stream. They are
// ordered from the cheapest to run to the most thorough.
type encoder uint8

const (
	huffmanOnly  encoder = iota // entropy coding alone: bytes spread over many values
	bestSpeed                   // one hash probe a position: a few values, in runs
	defaultLevel                // hash chains and lazy matching: everything else
	numEncoders
)

var encoderLevels = [numEncoders]int{flate.HuffmanOnly, flate.BestSpeed, flate.DefaultCompression}

// withinMargin reports whether a trial of size bytes is close enough to the
// smallest trial, best, that its encoder may stand in for the smallest's.
// The 16 bytes absorb what an encoder spends once per stream whatever its
// length, which weighs on a sample as on the whole plane: BestSpeed leaves
// the last 15 bytes of a block as literals, ~10 bytes more than the default
// level on a plane of one value.
func withinMargin(size, best int) bool { return size <= best+best/100+16 }

// plan is how Compress writes a payload: plan[p] writes byte plane p, so the
// plan's length is the stride. A plan of one is the payload as it is.
type plan []encoder

// coders is what one worker of a Compress works with: a DEFLATE writer per
// encoder, made on first use, the buffer it samples a plane into and the
// counter its trials write to. The caller's coders also hold what its
// workers read and write side by side: the payload's sample, the planes and
// one buffer per segment. A writer at the default level is ~700 KB of
// tables, so coders are pooled.
type coders struct {
	w      [numEncoders]*flate.Writer
	plane  []byte
	count  countWriter
	sample []byte
	planes []byte
	segs   []bytes.Buffer
}

// coderPool holds the coders of Compress's callers and helperPool those of
// the other workers of each, so a caller's planes and segments stay with
// callers.
var (
	coderPool  = sync.Pool{New: func() any { return new(coders) }}
	helperPool = sync.Pool{New: func() any { return new(coders) }}
)

func (c *coders) writer(e encoder) *flate.Writer {
	if c.w[e] == nil {
		c.w[e], _ = flate.NewWriter(nil, encoderLevels[e]) // the levels are valid
	}
	return c.w[e]
}

// pooledBytes is how much memory c would carry into the pool.
func (c *coders) pooledBytes() int {
	n := cap(c.planes)
	for _, seg := range c.segs[:cap(c.segs)] {
		n += seg.Cap()
	}
	return n
}

// each runs work(w, i) for every i in [0, units) on min(GOMAXPROCS, units)
// workers, each with coders w of its own: the caller with c, the others with
// coders from helperPool. A worker takes the next unit until none is left, so
// units start in the order of their index. With one worker everything runs
// on the caller and no goroutine starts; with more, each returns only after
// every worker has. The error is the lowest-numbered failed unit's.
func (c *coders) each(units int, work func(w *coders, i int) error) error {
	errs := make([]error, units)
	var next atomic.Int32
	run := func(w *coders) {
		for i := int(next.Add(1)) - 1; i < units; i = int(next.Add(1)) - 1 {
			errs[i] = work(w, i)
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), units) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := helperPool.Get().(*coders)
			run(w)
			helperPool.Put(w)
		}()
	}
	run(c)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// planFor reads how to write data off samples of it, and returns data laid
// out as the plan's planes.
//
// The stride is the sample's likely record width. Each plane's encoder is
// the cheapest whose trial on an evenly spaced sample of the plane itself
// comes within a margin of the smallest trial: a sample of the payload at an
// arbitrary offset would put byte p+1 of a cell in plane p. The planes are
// kept only if their trials sum to fewer bytes than BestSpeed makes of the
// payload's sample as it is. Equal bytes at a distance are necessary, not
// sufficient: cells of decimal fractions repeat inside themselves, and planes
// would cut that up. BestSpeed stands in for the default level there at a
// sixth of the cost: it reads the column shapes' samples 0.5-10 % larger, and
// every shape TestCompressShapes holds is decided as the default level
// decides it. Otherwise, and at stride 1, the plan is one default-level
// stream.
//
// The transposition, the trial of the payload as it is and each plane's
// trials are independent units: each reads data, none another's output, so
// they run side by side (each). A plane's sample is read from data, not
// from the planes being transposed beside it.
func (c *coders) planFor(data []byte) (plan, []byte, error) {
	asIs := plan{defaultLevel}
	c.sample = sampleOf(c.sample, data, 1, 0, strideSample)
	stride := likelyStride(c.sample)
	if stride == 1 {
		return asIs, data, nil
	}
	p, size := make(plan, stride), make([]int, stride)
	var plain int
	err := c.each(2+stride, func(w *coders, u int) (err error) {
		switch u {
		case 0:
			c.planes = transpose(c.planes, data, stride)
		case 1:
			plain, err = w.deflatedLen(bestSpeed, c.sample)
		default:
			i := u - 2
			w.plane = sampleOf(w.plane, data, stride, i, strideSample/stride)
			p[i], size[i], err = w.pick(w.plane)
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	sum := 0
	for _, n := range size {
		sum += n
	}
	if sum >= plain {
		return asIs, data, nil
	}
	return p, c.planes, nil
}

// pick tries every encoder on sample and returns the cheapest whose trial
// comes within the margin of the smallest, and that trial's size.
func (c *coders) pick(sample []byte) (encoder, int, error) {
	var size [numEncoders]int
	for e := range size {
		var err error
		if size[e], err = c.deflatedLen(encoder(e), sample); err != nil {
			return 0, 0, err
		}
	}
	best, e := slices.Min(size[:]), huffmanOnly
	for !withinMargin(size[e], best) {
		e++
	}
	return e, size[e], nil
}

// deflatedLen is how many bytes encoder e makes of data.
func (c *coders) deflatedLen(e encoder, data []byte) (int, error) {
	c.count = 0
	w := c.writer(e)
	w.Reset(&c.count)
	if _, err := w.Write(data); err != nil {
		return 0, err
	}
	return int(c.count), w.Close()
}

// write writes planes by p into c.segs as one DEFLATE stream, a segment a
// buffer. Each run of planes with one encoder is a segment: its writer starts
// afresh, so no back-reference leaves the segment, and a sync flush ends it
// on a byte boundary, where the next segment's blocks begin. A Huffman-only
// plane is a segment of its own: its code table is all that models it, and
// two planes under one table are coded by neither's distribution. The
// len%stride tail rides with the last segment, which alone is closed.
//
// Since a segment depends on no byte before it, the segments are coded side
// by side (each), and c.segs in order is the stream one writer would have
// written segment after segment.
func (c *coders) write(planes []byte, p plan) error {
	n := len(planes) / len(p)
	var bounds []int // segment k is planes bounds[k] up to bounds[k+1]
	for from := 0; from < len(p); {
		bounds = append(bounds, from)
		to := from + 1
		for to < len(p) && p[to] == p[from] && p[from] != huffmanOnly {
			to++
		}
		from = to
	}
	bounds = append(bounds, len(p))
	segs := len(bounds) - 1
	c.segs = slices.Grow(c.segs[:0], segs)[:segs]
	return c.each(segs, func(w *coders, k int) error {
		from, to, end := bounds[k], bounds[k+1], len(planes)
		if to < len(p) {
			end = to * n
		}
		out := &c.segs[k]
		out.Reset()
		fw := w.writer(p[from])
		fw.Reset(out)
		if _, err := fw.Write(planes[from*n : end]); err != nil {
			return err
		}
		if to < len(p) {
			return fw.Flush()
		}
		return fw.Close()
	})
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// transpose lays stride-byte records out as byte planes in dst's memory:
// plane p holds byte p of every record, and the len%stride tail follows
// verbatim.
func transpose(dst, data []byte, stride int) []byte {
	out := slices.Grow(dst[:0], len(data))[:len(data)]
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

// untranspose reverses transpose into out, which is as long as planes.
func untranspose(out, planes []byte, stride int) []byte {
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

// Compress byte-planes data at the stride it detects and DEFLATEs each plane
// with the encoder its sample asks for. The result describes itself: the
// stride (one byte), the raw length (uvarint), the DEFLATE stream.
func Compress(data []byte) ([]byte, error) { return appendCompressed(nil, data) }

// appendCompressed appends Compress(data) to dst.
func appendCompressed(dst, data []byte) ([]byte, error) {
	if len(data) > maxRawLen {
		return nil, core.Errorf(core.KindResource, "payload of %d bytes exceeds the %d-byte transfer limit", len(data), maxRawLen)
	}
	c := coderPool.Get().(*coders)
	p, planes, err := c.planFor(data)
	if err == nil {
		err = c.write(planes, p)
	}
	if err != nil {
		return nil, core.Wrapf(core.KindIO, err, "flate: %v", err)
	}
	n := 0
	for i := range c.segs {
		n += c.segs[i].Len()
	}
	dst = slices.Grow(dst, 1+binary.MaxVarintLen64+n)
	dst = append(dst, byte(len(p)))
	dst = binary.AppendUvarint(dst, uint64(len(data)))
	for i := range c.segs {
		dst = append(dst, c.segs[i].Bytes()...)
	}
	if c.pooledBytes() <= maxPooledBytes {
		coderPool.Put(c)
	}
	return dst, nil
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
	if stride == 1 {
		return inflate(nil, stream, int(rawLen))
	}
	buf := planesPool.Get().(*[]byte)
	planes, err := inflate(*buf, stream, int(rawLen))
	if err != nil {
		planesPool.Put(buf)
		return nil, err
	}
	out := untranspose(make([]byte, len(planes)), planes, int(stride))
	if cap(planes) <= maxPooledBytes {
		*buf = planes
		planesPool.Put(buf)
	}
	return out, nil
}

// planesPool holds the buffers Decompress inflates planes into before it
// untransposes them into the slice it returns.
var planesPool = sync.Pool{New: func() any { return new([]byte) }}

// inflate reads exactly n bytes, into dst's memory, out of a DEFLATE stream
// that must end there, and with it the input.
func inflate(dst, stream []byte, n int) ([]byte, error) {
	src := bytes.NewReader(stream) // a ByteReader: flate takes no byte it does not use
	r := flate.NewReader(src)
	out := dst[:0]
	if cap(out) < min(n, inflatePrealloc) {
		out = make([]byte, 0, min(n, inflatePrealloc))
	}
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

// DeriveKey turns the database user's password into an AES-256 key.
func DeriveKey(password string) []byte {
	sum := sha256.Sum256([]byte("devudf-transfer-v1:" + password))
	return sum[:]
}

// Encrypt applies AES-CTR under a random IV, which it prepends to the
// ciphertext. CTR's secrecy rests on never using a key with one IV twice, so
// the IV comes from crypto/rand: no two payloads share a keystream, whatever
// their lengths and whatever seed the caller passes. The seed is ignored; the
// signature keeps it for existing callers.
func Encrypt(password string, seed int64, plaintext []byte) ([]byte, error) {
	return appendEncrypted(nil, password, plaintext)
}

// appendEncrypted appends Encrypt's output for plaintext to dst.
func appendEncrypted(dst []byte, password string, plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(DeriveKey(password))
	if err != nil {
		return nil, core.Wrapf(core.KindIO, err, "aes: %v", err)
	}
	out := slices.Grow(dst, aes.BlockSize+len(plaintext))[:len(dst)+aes.BlockSize+len(plaintext)]
	iv := out[len(dst) : len(dst)+aes.BlockSize]
	if _, err := crand.Read(iv); err != nil {
		return nil, core.Wrapf(core.KindIO, err, "iv: %v", err)
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
	formPlanes   byte = 2 // Compress's output; 1 was a bare DEFLATE stream, no longer read
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
		return appendEncrypted(hdr, password, comp)
	case o.Compress:
		return appendCompressed(hdr, payload)
	case o.Encrypt:
		return appendEncrypted(hdr, password, payload)
	}
	return append(hdr, payload...), nil
}

// Unpack reverses Pack. The bytes it returns are the caller's.
func Unpack(packed []byte, password string) ([]byte, error) {
	if len(packed) < 2 {
		return nil, core.Errorf(core.KindProtocol, "payload too short")
	}
	form, encrypted := packed[0], packed[1]
	if (form != formVerbatim && form != formPlanes) || encrypted > 1 {
		return nil, core.Errorf(core.KindProtocol, "unknown payload header %d %d", form, encrypted)
	}
	payload := packed[2:]
	if encrypted == 1 {
		var err error
		if payload, err = Decrypt(password, payload); err != nil {
			return nil, err
		}
	}
	if form == formPlanes {
		return Decompress(payload)
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

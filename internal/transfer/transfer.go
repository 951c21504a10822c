// Package transfer implements the data-transfer options the devUDF settings
// window exposes (paper §2.1–2.2): payload compression, encryption keyed by
// the database user's password, and uniform random sampling. The server-side
// extract function applies them before data leaves the database; the client
// reverses them.
package transfer

import (
	"bytes"
	"compress/flate"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"io"
	"math/rand"
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

// Compress DEFLATEs data at the default level.
func Compress(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return nil, core.Wrapf(core.KindIO, err, "flate: %v", err)
	}
	if _, err := w.Write(data); err != nil {
		return nil, core.Wrapf(core.KindIO, err, "flate: %v", err)
	}
	if err := w.Close(); err != nil {
		return nil, core.Wrapf(core.KindIO, err, "flate: %v", err)
	}
	return buf.Bytes(), nil
}

// Decompress reverses Compress.
func Decompress(data []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, core.Wrapf(core.KindProtocol, err, "corrupt compressed payload: %v", err)
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
	block, err := aes.NewCipher(DeriveKey(password))
	if err != nil {
		return nil, core.Wrapf(core.KindIO, err, "aes: %v", err)
	}
	iv := make([]byte, aes.BlockSize)
	rng := rand.New(rand.NewSource(seed ^ int64(len(plaintext))*0x9E3779B9))
	for i := range iv {
		iv[i] = byte(rng.Intn(256))
	}
	out := make([]byte, aes.BlockSize+len(plaintext))
	copy(out, iv)
	cipher.NewCTR(block, iv).XORKeyStream(out[aes.BlockSize:], plaintext)
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

// Pack applies the selected transformations to a payload, in order:
// compress, then encrypt. A two-byte header records which transformations
// were applied so Unpack is self-describing.
func Pack(payload []byte, password string, o Options) ([]byte, error) {
	var err error
	if o.Compress {
		if payload, err = Compress(payload); err != nil {
			return nil, err
		}
	}
	if o.Encrypt {
		if payload, err = Encrypt(password, o.Seed, payload); err != nil {
			return nil, err
		}
	}
	hdr := make([]byte, 2)
	if o.Compress {
		hdr[0] = 1
	}
	if o.Encrypt {
		hdr[1] = 1
	}
	return append(hdr, payload...), nil
}

// Unpack reverses Pack.
func Unpack(packed []byte, password string) ([]byte, error) {
	if len(packed) < 2 {
		return nil, core.Errorf(core.KindProtocol, "payload too short")
	}
	compressed, encrypted := packed[0] == 1, packed[1] == 1
	payload := packed[2:]
	var err error
	if encrypted {
		if payload, err = Decrypt(password, payload); err != nil {
			return nil, err
		}
	}
	if compressed {
		if payload, err = Decompress(payload); err != nil {
			return nil, err
		}
	}
	// copy so the caller owns the bytes
	out := make([]byte, len(payload))
	copy(out, payload)
	return out, nil
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

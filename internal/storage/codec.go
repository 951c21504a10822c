package storage

import (
	"encoding/binary"
	"math"

	"repro/internal/core"
)

// Binary column/table codec, shared by the wire protocol's result sets and
// the database dump format.

// ByteReader is a bounds-checked cursor over an encoded payload.
type ByteReader struct {
	data []byte
}

// NewByteReader wraps data.
func NewByteReader(data []byte) *ByteReader { return &ByteReader{data: data} }

// Remaining returns the number of unread bytes.
func (r *ByteReader) Remaining() int { return len(r.data) }

// U8 reads one byte.
func (r *ByteReader) U8() (byte, error) {
	if len(r.data) < 1 {
		return 0, core.Errorf(core.KindProtocol, "truncated payload")
	}
	v := r.data[0]
	r.data = r.data[1:]
	return v, nil
}

// U32 reads a big-endian uint32.
func (r *ByteReader) U32() (uint32, error) {
	if len(r.data) < 4 {
		return 0, core.Errorf(core.KindProtocol, "truncated payload")
	}
	v := binary.BigEndian.Uint32(r.data)
	r.data = r.data[4:]
	return v, nil
}

// U64 reads a big-endian uint64.
func (r *ByteReader) U64() (uint64, error) {
	if len(r.data) < 8 {
		return 0, core.Errorf(core.KindProtocol, "truncated payload")
	}
	v := binary.BigEndian.Uint64(r.data)
	r.data = r.data[8:]
	return v, nil
}

// Str reads a length-prefixed string.
func (r *ByteReader) Str() (string, error) {
	n, err := r.U32()
	if err != nil {
		return "", err
	}
	if uint32(len(r.data)) < n {
		return "", core.Errorf(core.KindProtocol, "truncated payload")
	}
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s, nil
}

// Bytes reads a length-prefixed byte slice (copied).
func (r *ByteReader) Bytes() ([]byte, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	if uint32(len(r.data)) < n {
		return nil, core.Errorf(core.KindProtocol, "truncated payload")
	}
	b := make([]byte, n)
	copy(b, r.data[:n])
	r.data = r.data[n:]
	return b, nil
}

// Raw consumes n bytes without copying.
func (r *ByteReader) Raw(n int) ([]byte, error) {
	if len(r.data) < n {
		return nil, core.Errorf(core.KindProtocol, "truncated payload")
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b, nil
}

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(buf []byte, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// EncodeColumnRange appends the binary encoding of rows [from, to) of col:
// name, type, row count, optional packed validity bitmap, then the typed
// payload. The write-ahead log uses it to serialize an INSERT batch straight
// from the live table, without slicing a copy first.
func EncodeColumnRange(buf []byte, col *Column, from, to int) []byte {
	buf = AppendString(buf, col.Name)
	buf = append(buf, byte(col.Typ))
	n := to - from
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	if col.Nulls == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		// build the bitmap in place on buf — this runs per commit
		base := len(buf)
		for i := 0; i < (n+7)/8; i++ {
			buf = append(buf, 0)
		}
		for i := 0; i < n; i++ {
			if col.Nulls[from+i] {
				buf[base+i/8] |= 1 << (i % 8)
			}
		}
	}
	switch col.Typ {
	case TInt:
		for _, v := range col.Ints[from:to] {
			buf = binary.BigEndian.AppendUint64(buf, uint64(v))
		}
	case TFloat:
		for _, v := range col.Flts[from:to] {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
		}
	case TStr:
		for _, v := range col.Strs[from:to] {
			buf = AppendString(buf, v)
		}
	case TBool:
		for _, v := range col.Bools[from:to] {
			if v {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	case TBlob:
		for _, v := range col.Blobs[from:to] {
			buf = AppendBytes(buf, v)
		}
	}
	return buf
}

// DecodeColumn reads one column previously written by EncodeColumnRange.
func DecodeColumn(r *ByteReader) (*Column, error) {
	name, err := r.Str()
	if err != nil {
		return nil, err
	}
	tb, err := r.U8()
	if err != nil {
		return nil, err
	}
	typ := Type(tb)
	switch typ {
	case TInt, TFloat, TStr, TBool, TBlob:
	default:
		return nil, core.Errorf(core.KindProtocol, "unknown column type %d", tb)
	}
	n32, err := r.U32()
	if err != nil {
		return nil, err
	}
	n := int(n32)
	// An adversarial row count would drive n append loops (and for the
	// fixed-width types a giant Reserve) before the cursor runs dry: reject
	// any count the remaining payload cannot possibly hold, mirroring
	// DecodeTable's column-count cap.
	if need := minColumnBytes(typ, n); need > r.Remaining() {
		return nil, core.Errorf(core.KindProtocol,
			"implausible row count %d: needs >= %d bytes, %d remain", n, need, r.Remaining())
	}
	col := NewColumn(name, typ)
	hasNulls, err := r.U8()
	if err != nil {
		return nil, err
	}
	if hasNulls > 1 {
		return nil, core.Errorf(core.KindProtocol, "invalid null-bitmap flag %d", hasNulls)
	}
	var bitmap []byte
	if hasNulls == 1 {
		bitmap, err = r.Raw((n + 7) / 8)
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		switch typ {
		case TInt:
			v, err := r.U64()
			if err != nil {
				return nil, err
			}
			col.AppendInt(int64(v))
		case TFloat:
			v, err := r.U64()
			if err != nil {
				return nil, err
			}
			col.AppendFloat(math.Float64frombits(v))
		case TStr:
			s, err := r.Str()
			if err != nil {
				return nil, err
			}
			col.AppendStr(s)
		case TBool:
			b, err := r.U8()
			if err != nil {
				return nil, err
			}
			col.AppendBool(b == 1)
		case TBlob:
			b, err := r.Bytes()
			if err != nil {
				return nil, err
			}
			col.AppendBlob(b)
		}
	}
	if bitmap != nil {
		if col.Nulls == nil {
			col.Nulls = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			if bitmap[i/8]&(1<<(i%8)) != 0 {
				col.Nulls[i] = true
			}
		}
	}
	return col, nil
}

// minColumnBytes returns the smallest possible encoded size of n rows of
// type typ (excluding the null bitmap): the bound DecodeColumn uses to
// reject row counts the payload cannot back.
func minColumnBytes(typ Type, n int) int {
	switch typ {
	case TInt, TFloat:
		return n * 8
	case TBool:
		return n
	default: // TStr, TBlob: a 4-byte length prefix per row at minimum
		return n * 4
	}
}

// EncodeTable appends a table (name, column count, columns).
func EncodeTable(buf []byte, t *Table) []byte {
	return EncodeTableRange(buf, t, 0, t.NumRows())
}

// EncodeTableRange encodes rows [from, to) of every column of t in the
// EncodeTable format (decodable with DecodeTable).
func EncodeTableRange(buf []byte, t *Table, from, to int) []byte {
	buf = AppendString(buf, t.Name)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.Cols)))
	for _, col := range t.Cols {
		buf = EncodeColumnRange(buf, col, from, to)
	}
	return buf
}

// DecodeTable reads one table previously written by EncodeTable.
func DecodeTable(r *ByteReader) (*Table, error) {
	name, err := r.Str()
	if err != nil {
		return nil, err
	}
	ncols, err := r.U32()
	if err != nil {
		return nil, err
	}
	if ncols > 1<<16 {
		return nil, core.Errorf(core.KindProtocol, "implausible column count %d", ncols)
	}
	t := &Table{Name: name}
	for i := uint32(0); i < ncols; i++ {
		col, err := DecodeColumn(r)
		if err != nil {
			return nil, err
		}
		t.Cols = append(t.Cols, col)
	}
	return t, nil
}

package storage

import (
	"encoding/binary"
	"math"

	"repro/internal/core"
)

// Binary column/table codec. This file is the only place that knows how a
// column is laid out in bytes — header, null bitmap, typed values, table
// framing — how big that is and how many rows of it fit a chunk; the wire
// protocol, the write-ahead log and the dump format (which adds an encoding
// byte, RLE and dictionaries) all call it, so a change to the layout is a
// change here and to the golden digests (TestGoldenBytes), nowhere else.

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

// AppendColumnHeader appends what precedes the values of rows [from, to) of
// col: name, type, row count, and the null flag with its packed bitmap. The
// dump format puts its encoding byte between this and the values.
func AppendColumnHeader(buf []byte, col *Column, from, to int) []byte {
	buf = AppendString(buf, col.Name)
	buf = append(buf, byte(col.Typ))
	n := to - from
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	if col.Nulls == nil {
		return append(buf, 0)
	}
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
	return buf
}

// AppendColumnValues appends the typed values of rows [from, to) of col, one
// after the other. Values under NULL bits are written as stored.
func AppendColumnValues(buf []byte, col *Column, from, to int) []byte {
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

// DecodeColumnWith reads a column header (AppendColumnHeader), has values
// append the n rows it announces to the new column, and then unpacks the
// null bitmap over them. Nothing proportional to n is allocated before
// values has accepted n.
func DecodeColumnWith(r *ByteReader, values func(r *ByteReader, col *Column, n int) error) (*Column, error) {
	name, err := r.Str()
	if err != nil {
		return nil, err
	}
	tb, err := r.U8()
	if err != nil {
		return nil, err
	}
	typ := Type(tb)
	if !typ.Valid() {
		return nil, core.Errorf(core.KindProtocol, "unknown column type %d", tb)
	}
	n32, err := r.U32()
	if err != nil {
		return nil, err
	}
	n := int(n32)
	hasNulls, err := r.U8()
	if err != nil {
		return nil, err
	}
	if hasNulls > 1 {
		return nil, core.Errorf(core.KindProtocol, "invalid null-bitmap flag %d", hasNulls)
	}
	var bitmap []byte
	if hasNulls == 1 {
		if bitmap, err = r.Raw((n + 7) / 8); err != nil {
			return nil, err
		}
	}
	col := NewColumn(name, typ)
	if err := values(r, col, n); err != nil {
		return nil, err
	}
	if col.Len() != n {
		return nil, core.Errorf(core.KindProtocol, "column %q decoded to %d rows, header says %d", name, col.Len(), n)
	}
	if bitmap != nil {
		col.Nulls = make([]bool, n)
		for i := range col.Nulls {
			col.Nulls[i] = bitmap[i/8]&(1<<(i%8)) != 0
		}
	}
	return col, nil
}

// DecodeColumnValues appends n values written by AppendColumnValues to col.
func DecodeColumnValues(r *ByteReader, col *Column, n int) error {
	// An adversarial row count would drive n append loops and a giant
	// Reserve before the cursor runs dry: reject any count the remaining
	// payload cannot possibly hold.
	if need := minColumnBytes(col.Typ, n); need > r.Remaining() {
		return core.Errorf(core.KindProtocol,
			"implausible row count %d: needs >= %d bytes, %d remain", n, need, r.Remaining())
	}
	col.Reserve(n)
	for i := 0; i < n; i++ {
		switch col.Typ {
		case TInt:
			v, err := r.U64()
			if err != nil {
				return err
			}
			col.AppendInt(int64(v))
		case TFloat:
			v, err := r.U64()
			if err != nil {
				return err
			}
			col.AppendFloat(math.Float64frombits(v))
		case TStr:
			s, err := r.Str()
			if err != nil {
				return err
			}
			col.AppendStr(s)
		case TBool:
			b, err := r.U8()
			if err != nil {
				return err
			}
			if b > 1 {
				return core.Errorf(core.KindProtocol, "invalid boolean byte %d", b)
			}
			col.AppendBool(b == 1)
		case TBlob:
			b, err := r.Bytes()
			if err != nil {
				return err
			}
			col.AppendBlob(b)
		}
	}
	return nil
}

// minColumnBytes returns the smallest possible encoded size of n values of
// type typ: the bound DecodeColumnValues uses to reject row counts the
// payload cannot back.
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
// EncodeTable format (decodable with DecodeTable). The write-ahead log uses
// it to serialize an INSERT batch straight from the live table, and the
// result stream a chunk, without slicing a copy first.
func EncodeTableRange(buf []byte, t *Table, from, to int) []byte {
	return EncodeTableWith(buf, t, func(buf []byte, col *Column) []byte {
		return AppendColumnValues(AppendColumnHeader(buf, col, from, to), col, from, to)
	})
}

// EncodeTableWith appends t's framing — name and column count — and each
// column as column writes it.
func EncodeTableWith(buf []byte, t *Table, column func([]byte, *Column) []byte) []byte {
	buf = AppendString(buf, t.Name)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.Cols)))
	for _, col := range t.Cols {
		buf = column(buf, col)
	}
	return buf
}

// EncodedTableSize returns how many bytes EncodeTableRange writes for rows
// [from, to) of t, without writing them.
func EncodedTableSize(t *Table, from, to int) int {
	n := 4 + len(t.Name) + 4
	for _, c := range t.Cols {
		n += 4 + len(c.Name) + 1 + 4 + 1 + valueBytes(c, from, to)
		if c.Nulls != nil {
			n += (to - from + 7) / 8
		}
	}
	return n
}

// valueBytes is the size of what AppendColumnValues writes.
func valueBytes(c *Column, from, to int) int {
	n := minColumnBytes(c.Typ, to-from)
	switch c.Typ {
	case TStr:
		for _, s := range c.Strs[from:to] {
			n += len(s)
		}
	case TBlob:
		for _, b := range c.Blobs[from:to] {
			n += len(b)
		}
	}
	return n
}

// ChunkEnd returns the end of the longest run of rows starting at from that
// EncodeTableRange writes in at most limit bytes — one row at least, however
// large — and an upper bound on the size of that encoding. A row is charged
// a whole bitmap byte per cell, so a run may end a few rows early and never
// late; where the result stream cuts its chunks is this function, and the
// golden bytes pin it.
func ChunkEnd(t *Table, from, limit int) (to, size int) {
	rows := t.NumRows()
	to, size = from, EncodedTableSize(t, 0, 0)
	for to < rows {
		row := len(t.Cols)
		for _, c := range t.Cols {
			row += valueBytes(c, to, to+1)
		}
		if to > from && size+row > limit {
			break
		}
		size += row
		to++
	}
	return to, size
}

// DecodeTable reads one table previously written by EncodeTable.
func DecodeTable(r *ByteReader) (*Table, error) {
	return DecodeTableWith(r, func(r *ByteReader) (*Column, error) {
		return DecodeColumnWith(r, DecodeColumnValues)
	})
}

// DecodeTableWith reads a table's framing (EncodeTableWith) and each column
// as column reads it. Columns of different lengths are refused: the engine
// indexes every column of a table by the first one's row count.
func DecodeTableWith(r *ByteReader, column func(*ByteReader) (*Column, error)) (*Table, error) {
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
		col, err := column(r)
		if err != nil {
			return nil, err
		}
		if i > 0 && col.Len() != t.NumRows() {
			return nil, core.Errorf(core.KindProtocol,
				"ragged table %q: column %q has %d rows, want %d", name, col.Name, col.Len(), t.NumRows())
		}
		t.Cols = append(t.Cols, col)
	}
	return t, nil
}

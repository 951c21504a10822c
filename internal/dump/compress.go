package dump

import (
	"encoding/binary"
	"math"

	"repro/internal/core"
	"repro/internal/storage"
)

// Compressed column codec for V2 dumps and WAL snapshots. Each column
// carries one encoding byte after the storage codec's column header (name,
// type, row count, null bitmap):
//
//	encPlain — the values of the storage codec, verbatim
//	encRLE   — run-length encoding: u32 run count, then (u32 length, value)
//	           per run; chosen for any type with long runs of equal values
//	encDict  — dictionary encoding (strings only): u32 dictionary size, the
//	           distinct strings, then one u32 code per row
//
// The encoder sizes all three candidates exactly and writes the smallest,
// so a snapshot is never larger than the plain form by more than the one
// encoding byte. Values under NULL bits are encoded as stored (the engine
// keeps them zeroed), which makes decode a bit-exact inverse.
const (
	encPlain byte = 0
	encRLE   byte = 1
	encDict  byte = 2
)

// maxDumpRows caps the decoded row count of one column: RLE makes the
// "bytes remaining" bound of the storage codec too weak (a few bytes can
// legally describe millions of rows), so an absolute cap backstops
// adversarial inputs instead. 16M rows keeps the worst-case single-column
// allocation at 128MB while leaving plenty of headroom over any snapshot
// this engine realistically writes.
const maxDumpRows = 1 << 24

// maxDumpCells bounds the total decoded values across an entire restore
// (all tables, all columns) — see readColumnV2.
const maxDumpCells = 1 << 26

func appendColumnV2(buf []byte, col *storage.Column) []byte {
	n := col.Len()
	buf = storage.AppendColumnHeader(buf, col, 0, n)
	enc := chooseEncoding(col)
	buf = append(buf, enc)
	switch enc {
	case encRLE:
		return appendRLE(buf, col)
	case encDict:
		return appendDict(buf, col)
	default:
		return storage.AppendColumnValues(buf, col, 0, n)
	}
}

// chooseEncoding picks the smallest exact encoding for col.
func chooseEncoding(col *storage.Column) byte {
	n := col.Len()
	if n == 0 {
		return encPlain
	}
	switch col.Typ {
	case storage.TInt, storage.TFloat:
		plain := 8 * n
		rle := 4 + 12*countRuns(col)
		if rle < plain {
			return encRLE
		}
	case storage.TBool:
		plain := n
		rle := 4 + 5*countRuns(col)
		if rle < plain {
			return encRLE
		}
	case storage.TStr:
		plain := 0
		for _, s := range col.Strs {
			plain += 4 + len(s)
		}
		rle := 4
		prev := ""
		for i, s := range col.Strs {
			if i == 0 || s != prev {
				rle += 4 + 4 + len(s)
				prev = s
			}
		}
		dict := 4 + 4*n
		seen := make(map[string]struct{}, 64)
		for _, s := range col.Strs {
			if _, ok := seen[s]; !ok {
				seen[s] = struct{}{}
				dict += 4 + len(s)
			}
		}
		switch {
		case dict < plain && dict <= rle:
			return encDict
		case rle < plain:
			return encRLE
		}
	}
	return encPlain
}

// countRuns returns the number of maximal runs of equal values. Floats
// compare by bit pattern so NaNs form runs too.
func countRuns(col *storage.Column) int {
	runs := 0
	switch col.Typ {
	case storage.TInt:
		for i, v := range col.Ints {
			if i == 0 || v != col.Ints[i-1] {
				runs++
			}
		}
	case storage.TFloat:
		for i, v := range col.Flts {
			if i == 0 || math.Float64bits(v) != math.Float64bits(col.Flts[i-1]) {
				runs++
			}
		}
	case storage.TBool:
		for i, v := range col.Bools {
			if i == 0 || v != col.Bools[i-1] {
				runs++
			}
		}
	}
	return runs
}

// appendRLE writes (run length, value) pairs behind a run count.
func appendRLE(buf []byte, col *storage.Column) []byte {
	countAt := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, 0)
	runs := 0
	emit := func(length int, appendVal func([]byte) []byte) []byte {
		runs++
		buf = binary.BigEndian.AppendUint32(buf, uint32(length))
		return appendVal(buf)
	}
	switch col.Typ {
	case storage.TInt:
		for i := 0; i < len(col.Ints); {
			j := i
			for j < len(col.Ints) && col.Ints[j] == col.Ints[i] {
				j++
			}
			v := col.Ints[i]
			buf = emit(j-i, func(b []byte) []byte { return binary.BigEndian.AppendUint64(b, uint64(v)) })
			i = j
		}
	case storage.TFloat:
		for i := 0; i < len(col.Flts); {
			bits := math.Float64bits(col.Flts[i])
			j := i
			for j < len(col.Flts) && math.Float64bits(col.Flts[j]) == bits {
				j++
			}
			buf = emit(j-i, func(b []byte) []byte { return binary.BigEndian.AppendUint64(b, bits) })
			i = j
		}
	case storage.TBool:
		for i := 0; i < len(col.Bools); {
			j := i
			for j < len(col.Bools) && col.Bools[j] == col.Bools[i] {
				j++
			}
			v := byte(0)
			if col.Bools[i] {
				v = 1
			}
			buf = emit(j-i, func(b []byte) []byte { return append(b, v) })
			i = j
		}
	case storage.TStr:
		for i := 0; i < len(col.Strs); {
			j := i
			for j < len(col.Strs) && col.Strs[j] == col.Strs[i] {
				j++
			}
			v := col.Strs[i]
			buf = emit(j-i, func(b []byte) []byte { return storage.AppendString(b, v) })
			i = j
		}
	}
	binary.BigEndian.PutUint32(buf[countAt:], uint32(runs))
	return buf
}

// appendDict writes the distinct strings in first-appearance order, then
// one u32 code per row.
func appendDict(buf []byte, col *storage.Column) []byte {
	codes := make(map[string]uint32, 64)
	var dict []string
	for _, s := range col.Strs {
		if _, ok := codes[s]; !ok {
			codes[s] = uint32(len(dict))
			dict = append(dict, s)
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(dict)))
	for _, s := range dict {
		buf = storage.AppendString(buf, s)
	}
	for _, s := range col.Strs {
		buf = binary.BigEndian.AppendUint32(buf, codes[s])
	}
	return buf
}

// readColumnV2 decodes one compressed column, drawing decoded rows from
// budget. The per-column row cap alone is not enough: RLE expansion lets
// each few-byte column spec demand maxDumpRows of allocation, so a dump
// repeating such specs could soak up CPU and memory out of all proportion
// to its size. The budget bounds the whole restore.
func readColumnV2(br *storage.ByteReader, budget *int) (*storage.Column, error) {
	return storage.DecodeColumnWith(br, func(br *storage.ByteReader, col *storage.Column, n int) error {
		if n > maxDumpRows {
			return core.Errorf(core.KindProtocol, "implausible row count %d", n)
		}
		if *budget -= n; *budget < 0 {
			return core.Errorf(core.KindProtocol, "dump exceeds decode budget")
		}
		enc, err := br.U8()
		if err != nil {
			return err
		}
		switch enc {
		case encPlain:
			return storage.DecodeColumnValues(br, col, n)
		case encRLE:
			return readRLE(br, col, n)
		case encDict:
			if col.Typ != storage.TStr {
				return core.Errorf(core.KindProtocol, "dictionary encoding on non-string column %q", col.Name)
			}
			return readDict(br, col, n)
		default:
			return core.Errorf(core.KindProtocol, "unknown column encoding %d", enc)
		}
	})
}

func readRLE(br *storage.ByteReader, col *storage.Column, n int) error {
	nruns32, err := br.U32()
	if err != nil {
		return err
	}
	nruns := int(nruns32)
	// each run costs at least 5 bytes (u32 length + 1-byte value)
	if nruns*5 > br.Remaining() {
		return core.Errorf(core.KindProtocol, "implausible run count %d", nruns)
	}
	col.Reserve(n)
	total := 0
	for r := 0; r < nruns; r++ {
		length32, err := br.U32()
		if err != nil {
			return err
		}
		length := int(length32)
		if length == 0 || total+length > n {
			return core.Errorf(core.KindProtocol, "RLE runs overflow row count %d", n)
		}
		total += length
		switch col.Typ {
		case storage.TInt:
			v, err := br.U64()
			if err != nil {
				return err
			}
			for i := 0; i < length; i++ {
				col.AppendInt(int64(v))
			}
		case storage.TFloat:
			v, err := br.U64()
			if err != nil {
				return err
			}
			for i := 0; i < length; i++ {
				col.AppendFloat(math.Float64frombits(v))
			}
		case storage.TBool:
			b, err := br.U8()
			if err != nil {
				return err
			}
			if b > 1 {
				return core.Errorf(core.KindProtocol, "invalid boolean byte %d", b)
			}
			for i := 0; i < length; i++ {
				col.AppendBool(b == 1)
			}
		case storage.TStr:
			s, err := br.Str()
			if err != nil {
				return err
			}
			for i := 0; i < length; i++ {
				col.AppendStr(s)
			}
		default:
			return core.Errorf(core.KindProtocol, "RLE encoding on blob column %q", col.Name)
		}
	}
	if total != n {
		return core.Errorf(core.KindProtocol, "RLE runs cover %d of %d rows", total, n)
	}
	return nil
}

func readDict(br *storage.ByteReader, col *storage.Column, n int) error {
	dictLen32, err := br.U32()
	if err != nil {
		return err
	}
	dictLen := int(dictLen32)
	// each entry costs at least its 4-byte length prefix, and a dictionary
	// larger than the row count cannot have come from the encoder
	if dictLen*4 > br.Remaining() || dictLen > n {
		return core.Errorf(core.KindProtocol, "implausible dictionary size %d", dictLen)
	}
	dict := make([]string, dictLen)
	for i := range dict {
		if dict[i], err = br.Str(); err != nil {
			return err
		}
	}
	if n*4 > br.Remaining() {
		return core.Errorf(core.KindProtocol,
			"implausible row count %d: needs >= %d bytes, %d remain", n, n*4, br.Remaining())
	}
	col.Reserve(n)
	for i := 0; i < n; i++ {
		code, err := br.U32()
		if err != nil {
			return err
		}
		if int(code) >= dictLen {
			return core.Errorf(core.KindProtocol, "dictionary code %d out of range (size %d)", code, dictLen)
		}
		col.AppendStr(dict[code])
	}
	return nil
}

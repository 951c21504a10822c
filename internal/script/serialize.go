package script

import (
	"encoding/binary"
	"slices"
	"sync"

	"repro/internal/core"
)

// This file implements the binary value codec behind PyLite's pickle module.
// The format is self-describing and versioned; it is also what the wire
// protocol ships for UDF input blobs (the paper's input.bin).

const pickleMagic = "PKL1"

// value tags
const (
	tagNone byte = iota
	tagFalse
	tagTrue
	tagInt
	tagFloat
	tagStr
	tagBytes
	tagList
	tagTuple
	tagDict
	tagObject
)

// Picklable is implemented by Opaque payloads of native objects that can
// round-trip through pickle (e.g. the mllib classifier).
type Picklable interface {
	// PickleClass identifies the object class for the unpickler registry.
	PickleClass() string
	// PickleData serializes the object state.
	PickleData() ([]byte, error)
}

var (
	unpicklersMu sync.RWMutex
	unpicklers   = map[string]func([]byte) (Value, error){}
)

// RegisterUnpickler installs a decoder for a native object class. Packages
// providing picklable objects call this from init().
func RegisterUnpickler(class string, fn func([]byte) (Value, error)) {
	unpicklersMu.Lock()
	defer unpicklersMu.Unlock()
	unpicklers[class] = fn
}

// Marshal serializes a value to the PyLite pickle format.
func Marshal(v Value) ([]byte, error) {
	buf := []byte(pickleMagic)
	return marshalInto(buf, v)
}

func marshalInto(buf []byte, v Value) ([]byte, error) {
	var err error
	switch v := v.(type) {
	case NoneVal:
		buf = append(buf, tagNone)
	case BoolVal:
		if v {
			buf = append(buf, tagTrue)
		} else {
			buf = append(buf, tagFalse)
		}
	case IntVal, FloatVal:
		buf = marshalNumber(buf, unbox(v))
	case StrVal:
		buf = append(buf, tagStr)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	case BytesVal:
		buf = append(buf, tagBytes)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	case *ListVal:
		buf = append(buf, tagList)
		buf = binary.BigEndian.AppendUint32(buf, uint32(v.Len()))
		if v.lane != laneBoxed { // a column pickles from its slices, to the bytes its boxed cells would
			buf = slices.Grow(buf, 9*v.Len())
			for i, n := 0, v.Len(); i < n; i++ {
				buf = marshalNumber(buf, v.at(i))
			}
			break
		}
		for _, it := range v.Items {
			if buf, err = marshalInto(buf, it); err != nil {
				return nil, err
			}
		}
	case *TupleVal:
		buf = append(buf, tagTuple)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.Items)))
		for _, it := range v.Items {
			if buf, err = marshalInto(buf, it); err != nil {
				return nil, err
			}
		}
	case *DictVal:
		buf = append(buf, tagDict)
		items := v.Items()
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(items)))
		for _, kv := range items {
			if buf, err = marshalInto(buf, kv[0]); err != nil {
				return nil, err
			}
			if buf, err = marshalInto(buf, kv[1]); err != nil {
				return nil, err
			}
		}
	case RangeVal:
		// ranges pickle as expanded lists, matching Python's list(range(...))
		lst, err := v.List()
		if err != nil {
			return nil, err
		}
		return marshalInto(buf, lst)
	case *ObjectVal:
		p, ok := v.Opaque.(Picklable)
		if !ok {
			return nil, core.Errorf(core.KindType, "cannot pickle '%s' object", v.Class)
		}
		data, err := p.PickleData()
		if err != nil {
			return nil, err
		}
		class := p.PickleClass()
		buf = append(buf, tagObject)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(class)))
		buf = append(buf, class...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(data)))
		buf = append(buf, data...)
	default:
		return nil, core.Errorf(core.KindType, "cannot pickle '%s' object", v.TypeName())
	}
	return buf, nil
}

// marshalNumber appends a cell of a typed lane: an int, a float or None.
func marshalNumber(buf []byte, v val) []byte {
	switch v.kind {
	case kInt:
		return binary.BigEndian.AppendUint64(append(buf, tagInt), v.bits)
	case kFloat:
		return binary.BigEndian.AppendUint64(append(buf, tagFloat), v.bits)
	}
	return append(buf, tagNone)
}

// Unmarshal decodes a value from the PyLite pickle format. Every list in the
// result holds its cells boxed, in Items: callers outside this package read
// that field, so this exported entry point is where a decoded column is kept
// out of the typed lanes. Code that takes lists through Len, Boxed or Numbers
// — the interpreter's pickle module, the extract path — calls
// UnmarshalColumns and skips the boxes.
func Unmarshal(data []byte) (Value, error) { return unmarshal(data, false) }

// UnmarshalColumns is Unmarshal with the typed lanes: a pickled list whose
// cells are all ints or None, or all floats or None, comes back holding them
// as NewIntList and NewFloatList would (its own slices, Items nil), so a
// column costs its numbers and not a box per cell. It pickles back to the
// same bytes.
func UnmarshalColumns(data []byte) (Value, error) { return unmarshal(data, true) }

func unmarshal(data []byte, lanes bool) (Value, error) {
	if len(data) < len(pickleMagic) || string(data[:len(pickleMagic)]) != pickleMagic {
		return nil, core.Errorf(core.KindProtocol, "not a PyLite pickle stream")
	}
	v, rest, err := unmarshalFrom(data[len(pickleMagic):], lanes)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, core.Errorf(core.KindProtocol, "trailing garbage after pickled value (%d bytes)", len(rest))
	}
	return v.box(), nil
}

func truncErr() error {
	return core.Errorf(core.KindProtocol, "truncated pickle stream")
}

func take(data []byte, n int) ([]byte, []byte, error) {
	if len(data) < n {
		return nil, nil, truncErr()
	}
	return data[:n], data[n:], nil
}

func takeU32(data []byte) (uint32, []byte, error) {
	b, rest, err := take(data, 4)
	if err != nil {
		return 0, nil, err
	}
	return binary.BigEndian.Uint32(b), rest, nil
}

func takeU64(data []byte) (uint64, []byte, error) {
	b, rest, err := take(data, 8)
	if err != nil {
		return 0, nil, err
	}
	return binary.BigEndian.Uint64(b), rest, nil
}

// laneOf reads the tags of the next n cells and names the typed lane they
// fit: all ints or None, or all floats or None, at least one of them a
// number, and every cell there in full. It allocates nothing, so a forged
// count costs nothing; laneBoxed sends the list, and whatever is wrong with
// it, to the boxed loop.
func laneOf(data []byte, n uint32) (ln lane, nones int) {
	num := tagNone
	for i := uint32(0); i < n; i++ {
		switch {
		case len(data) > 0 && data[0] == tagNone:
			nones++
			data = data[1:]
		case len(data) >= 9 && (data[0] == tagInt || data[0] == tagFloat) && (num == tagNone || num == data[0]):
			num = data[0]
			data = data[9:]
		default:
			return laneBoxed, 0
		}
	}
	switch num {
	case tagInt:
		return laneInt, nones
	case tagFloat:
		return laneFloat, nones
	}
	return laneBoxed, 0
}

// unmarshalFrom decodes one value. A number comes back unboxed, so that with
// lanes a list of them is filled without a box per cell.
func unmarshalFrom(data []byte, lanes bool) (val, []byte, error) {
	if len(data) == 0 {
		return val{}, nil, truncErr()
	}
	tag := data[0]
	data = data[1:]
	switch tag {
	case tagNone:
		return noneV, data, nil
	case tagFalse:
		return boolV(false), data, nil
	case tagTrue:
		return boolV(true), data, nil
	case tagInt, tagFloat:
		bits, rest, err := takeU64(data)
		if err != nil {
			return val{}, nil, err
		}
		if tag == tagInt {
			return val{kind: kInt, bits: bits}, rest, nil
		}
		return val{kind: kFloat, bits: bits}, rest, nil
	case tagStr, tagBytes:
		n, rest, err := takeU32(data)
		if err != nil {
			return val{}, nil, err
		}
		b, rest, err := take(rest, int(n))
		if err != nil {
			return val{}, nil, err
		}
		if tag == tagStr {
			return val{ref: StrVal(b)}, rest, nil
		}
		return val{ref: BytesVal(slices.Clone(b))}, rest, nil
	case tagList, tagTuple:
		n, rest, err := takeU32(data)
		if err != nil {
			return val{}, nil, err
		}
		ln, nones := laneBoxed, 0
		if lanes && tag == tagList {
			ln, nones = laneOf(rest, n)
		}
		if ln != laneBoxed { // a column: the cells go into the list's own typed slices
			l := &ListVal{lane: ln}
			if ln == laneInt {
				l.ints = make([]int64, n)
			} else {
				l.flts = make([]float64, n)
			}
			if nones > 0 {
				l.nulls = make([]bool, n)
			}
			for i := 0; i < int(n); i++ {
				var v val
				v, rest, _ = unmarshalFrom(rest, lanes) // laneOf saw the cell whole
				switch v.kind {
				case kInt:
					l.ints[i] = v.int()
				case kFloat:
					l.flts[i] = v.float()
				default:
					l.nulls[i] = true
				}
			}
			return val{ref: l}, rest, nil
		}
		// Every element takes at least one byte, so cap the preallocation at
		// the remaining input: a forged length field must fail with a
		// truncation error, not exhaust memory up front.
		items := make([]Value, 0, min(int(n), len(rest)))
		for i := uint32(0); i < n; i++ {
			var v val
			v, rest, err = unmarshalFrom(rest, lanes)
			if err != nil {
				return val{}, nil, err
			}
			items = append(items, v.box())
		}
		if tag == tagList {
			return val{ref: &ListVal{Items: items}}, rest, nil
		}
		return val{ref: &TupleVal{Items: items}}, rest, nil
	case tagDict:
		n, rest, err := takeU32(data)
		if err != nil {
			return val{}, nil, err
		}
		d := NewDict()
		for i := uint32(0); i < n; i++ {
			var k, v val
			k, rest, err = unmarshalFrom(rest, lanes)
			if err != nil {
				return val{}, nil, err
			}
			v, rest, err = unmarshalFrom(rest, lanes)
			if err != nil {
				return val{}, nil, err
			}
			if err := d.Set(k.box(), v.box()); err != nil {
				return val{}, nil, err
			}
		}
		return val{ref: d}, rest, nil
	case tagObject:
		n, rest, err := takeU32(data)
		if err != nil {
			return val{}, nil, err
		}
		classB, rest, err := take(rest, int(n))
		if err != nil {
			return val{}, nil, err
		}
		dn, rest, err := takeU32(rest)
		if err != nil {
			return val{}, nil, err
		}
		payload, rest, err := take(rest, int(dn))
		if err != nil {
			return val{}, nil, err
		}
		class := string(classB)
		unpicklersMu.RLock()
		fn, ok := unpicklers[class]
		unpicklersMu.RUnlock()
		if !ok {
			return val{}, nil, core.Errorf(core.KindType, "no unpickler registered for class %q", class)
		}
		v, err := fn(payload)
		if err != nil {
			return val{}, nil, err
		}
		return unbox(v), rest, nil
	default:
		return val{}, nil, core.Errorf(core.KindProtocol, "unknown pickle tag %d", tag)
	}
}

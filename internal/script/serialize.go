package script

import (
	"encoding/binary"
	"math"
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

// Unmarshal decodes a value from the PyLite pickle format.
func Unmarshal(data []byte) (Value, error) {
	if len(data) < len(pickleMagic) || string(data[:len(pickleMagic)]) != pickleMagic {
		return nil, core.Errorf(core.KindProtocol, "not a PyLite pickle stream")
	}
	v, rest, err := unmarshalFrom(data[len(pickleMagic):])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, core.Errorf(core.KindProtocol, "trailing garbage after pickled value (%d bytes)", len(rest))
	}
	return v, nil
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

func unmarshalFrom(data []byte) (Value, []byte, error) {
	if len(data) == 0 {
		return nil, nil, truncErr()
	}
	tag := data[0]
	data = data[1:]
	switch tag {
	case tagNone:
		return None, data, nil
	case tagFalse:
		return BoolVal(false), data, nil
	case tagTrue:
		return BoolVal(true), data, nil
	case tagInt:
		b, rest, err := take(data, 8)
		if err != nil {
			return nil, nil, err
		}
		return IntVal(int64(binary.BigEndian.Uint64(b))), rest, nil
	case tagFloat:
		b, rest, err := take(data, 8)
		if err != nil {
			return nil, nil, err
		}
		return FloatVal(math.Float64frombits(binary.BigEndian.Uint64(b))), rest, nil
	case tagStr, tagBytes:
		n, rest, err := takeU32(data)
		if err != nil {
			return nil, nil, err
		}
		b, rest, err := take(rest, int(n))
		if err != nil {
			return nil, nil, err
		}
		if tag == tagStr {
			return StrVal(b), rest, nil
		}
		out := make([]byte, len(b))
		copy(out, b)
		return BytesVal(out), rest, nil
	case tagList, tagTuple:
		n, rest, err := takeU32(data)
		if err != nil {
			return nil, nil, err
		}
		// Every element takes at least one byte, so cap the preallocation at
		// the remaining input: a forged length field must fail with a
		// truncation error, not exhaust memory up front.
		capHint := int(n)
		if capHint > len(rest) {
			capHint = len(rest)
		}
		items := make([]Value, 0, capHint)
		for i := uint32(0); i < n; i++ {
			var v Value
			v, rest, err = unmarshalFrom(rest)
			if err != nil {
				return nil, nil, err
			}
			items = append(items, v)
		}
		if tag == tagList {
			return &ListVal{Items: items}, rest, nil
		}
		return &TupleVal{Items: items}, rest, nil
	case tagDict:
		n, rest, err := takeU32(data)
		if err != nil {
			return nil, nil, err
		}
		d := NewDict()
		for i := uint32(0); i < n; i++ {
			var k, v Value
			k, rest, err = unmarshalFrom(rest)
			if err != nil {
				return nil, nil, err
			}
			v, rest, err = unmarshalFrom(rest)
			if err != nil {
				return nil, nil, err
			}
			if err := d.Set(k, v); err != nil {
				return nil, nil, err
			}
		}
		return d, rest, nil
	case tagObject:
		n, rest, err := takeU32(data)
		if err != nil {
			return nil, nil, err
		}
		classB, rest, err := take(rest, int(n))
		if err != nil {
			return nil, nil, err
		}
		dn, rest, err := takeU32(rest)
		if err != nil {
			return nil, nil, err
		}
		payload, rest, err := take(rest, int(dn))
		if err != nil {
			return nil, nil, err
		}
		class := string(classB)
		unpicklersMu.RLock()
		fn, ok := unpicklers[class]
		unpicklersMu.RUnlock()
		if !ok {
			return nil, nil, core.Errorf(core.KindType, "no unpickler registered for class %q", class)
		}
		v, err := fn(payload)
		if err != nil {
			return nil, nil, err
		}
		return v, rest, nil
	default:
		return nil, nil, core.Errorf(core.KindProtocol, "unknown pickle tag %d", tag)
	}
}

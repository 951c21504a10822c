package script

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Value is a runtime PyLite value. The concrete types mirror Python's core
// object model closely enough for the paper's listings: None, bool, int,
// float, str, bytes, list, tuple, dict, function, builtin and native object.
type Value interface {
	// TypeName is the Python-style type name ("int", "list", ...).
	TypeName() string
	// Repr renders the value the way Python's repr() would (approximately).
	Repr() string
}

// NoneVal is the None singleton's type.
type NoneVal struct{}

// None is the singleton None value.
var None = NoneVal{}

func (NoneVal) TypeName() string { return "NoneType" }
func (NoneVal) Repr() string     { return "None" }

// BoolVal is a boolean.
type BoolVal bool

func (BoolVal) TypeName() string { return "bool" }
func (b BoolVal) Repr() string {
	if b {
		return "True"
	}
	return "False"
}

// IntVal is a 64-bit integer.
type IntVal int64

func (IntVal) TypeName() string { return "int" }
func (i IntVal) Repr() string   { return strconv.FormatInt(int64(i), 10) }

// FloatVal is a 64-bit float.
type FloatVal float64

func (FloatVal) TypeName() string { return "float" }
func (f FloatVal) Repr() string {
	v := float64(f)
	if v == math.Trunc(v) && math.Abs(v) < 1e15 && !math.IsInf(v, 0) {
		return strconv.FormatFloat(v, 'f', 1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// StrVal is a string.
type StrVal string

func (StrVal) TypeName() string { return "str" }
func (s StrVal) Repr() string   { return "'" + strings.ReplaceAll(string(s), "'", "\\'") + "'" }

// BytesVal is an immutable byte string (the result of pickle.dumps).
type BytesVal []byte

func (BytesVal) TypeName() string { return "bytes" }
func (b BytesVal) Repr() string   { return fmt.Sprintf("b'<%d bytes>'", len(b)) }

// ListVal is a mutable list. It holds its cells one of two ways. Boxed, they
// are Items — what NewList builds and pickle.loads returns. In a typed lane
// (lane.go) every cell is an int, or every cell a float, or None: the numbers
// sit unboxed in a []int64 or []float64 that may be a table column's own, and
// Items is nil. Read a list through Len, Boxed or ToSlice unless you built it.
type ListVal struct {
	Items []Value

	lane   lane
	ints   []int64
	flts   []float64
	nulls  []bool // typed lanes: the cells that are None; nil for none
	shared bool   // the typed slices are not the list's to write: own() copies them
}

// NewList builds a list value from items.
func NewList(items ...Value) *ListVal { return &ListVal{Items: items} }

func (*ListVal) TypeName() string { return "list" }

// TupleVal is an immutable sequence.
type TupleVal struct {
	Items []Value
}

func (*TupleVal) TypeName() string { return "tuple" }
func (t *TupleVal) Repr() string {
	parts := make([]string, len(t.Items))
	for i, it := range t.Items {
		parts[i] = it.Repr()
	}
	if len(parts) == 1 {
		return "(" + parts[0] + ",)"
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// DictVal is an insertion-ordered dictionary with str/int/bool/float keys.
type DictVal struct {
	keys  []Value
	index map[string]int
	vals  []Value
}

// NewDict returns an empty dictionary.
func NewDict() *DictVal { return &DictVal{index: map[string]int{}} }

func (*DictVal) TypeName() string { return "dict" }
func (d *DictVal) Repr() string {
	parts := make([]string, len(d.keys))
	for i, k := range d.keys {
		parts[i] = k.Repr() + ": " + d.vals[i].Repr()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// hashKey encodes a hashable value as a map key.
func hashKey(v Value) (string, error) {
	switch v := v.(type) {
	case StrVal:
		return "s:" + string(v), nil
	case IntVal:
		return "i:" + strconv.FormatInt(int64(v), 10), nil
	case BoolVal:
		if v {
			return "i:1", nil
		}
		return "i:0", nil
	case FloatVal:
		f := float64(v)
		if f == math.Trunc(f) {
			return "i:" + strconv.FormatInt(int64(f), 10), nil
		}
		return "f:" + strconv.FormatFloat(f, 'g', -1, 64), nil
	case NoneVal:
		return "n:", nil
	case *TupleVal:
		var sb strings.Builder
		sb.WriteString("t:")
		for _, it := range v.Items {
			k, err := hashKey(it)
			if err != nil {
				return "", err
			}
			sb.WriteString(strconv.Itoa(len(k)))
			sb.WriteByte('|')
			sb.WriteString(k)
		}
		return sb.String(), nil
	default:
		return "", core.Errorf(core.KindType, "unhashable type: '%s'", v.TypeName())
	}
}

// Set inserts or updates a key.
func (d *DictVal) Set(key, val Value) error {
	k, err := hashKey(key)
	if err != nil {
		return err
	}
	if d.index == nil {
		d.index = map[string]int{}
	}
	if i, ok := d.index[k]; ok {
		d.vals[i] = val
		return nil
	}
	d.index[k] = len(d.keys)
	d.keys = append(d.keys, key)
	d.vals = append(d.vals, val)
	return nil
}

// Get fetches a key; the second result reports presence.
func (d *DictVal) Get(key Value) (Value, bool, error) {
	k, err := hashKey(key)
	if err != nil {
		return nil, false, err
	}
	if i, ok := d.index[k]; ok {
		return d.vals[i], true, nil
	}
	return nil, false, nil
}

// Delete removes a key, reporting whether it was present.
func (d *DictVal) Delete(key Value) (bool, error) {
	k, err := hashKey(key)
	if err != nil {
		return false, err
	}
	i, ok := d.index[k]
	if !ok {
		return false, nil
	}
	delete(d.index, k)
	d.keys = append(d.keys[:i], d.keys[i+1:]...)
	d.vals = append(d.vals[:i], d.vals[i+1:]...)
	for j := i; j < len(d.keys); j++ {
		hk, _ := hashKey(d.keys[j])
		d.index[hk] = j
	}
	return true, nil
}

// Len returns the number of entries.
func (d *DictVal) Len() int { return len(d.keys) }

// Keys returns the keys in insertion order.
func (d *DictVal) Keys() []Value { return append([]Value(nil), d.keys...) }

// Values returns the values in insertion order.
func (d *DictVal) Values() []Value { return append([]Value(nil), d.vals...) }

// Items returns (key, value) pairs in insertion order.
func (d *DictVal) Items() [][2]Value {
	out := make([][2]Value, len(d.keys))
	for i := range d.keys {
		out[i] = [2]Value{d.keys[i], d.vals[i]}
	}
	return out
}

// SetStr is a convenience for string keys.
func (d *DictVal) SetStr(key string, val Value) { _ = d.Set(StrVal(key), val) }

// GetStr is a convenience for string keys.
func (d *DictVal) GetStr(key string) (Value, bool) {
	v, ok, _ := d.Get(StrVal(key))
	return v, ok
}

// RangeVal is a lazy range(start, stop, step) sequence.
type RangeVal struct {
	Start, Stop, Step int64
}

func (RangeVal) TypeName() string { return "range" }
func (r RangeVal) Repr() string {
	if r.Step == 1 {
		return fmt.Sprintf("range(%d, %d)", r.Start, r.Stop)
	}
	return fmt.Sprintf("range(%d, %d, %d)", r.Start, r.Stop, r.Step)
}

// Len returns the number of elements the range yields.
func (r RangeVal) Len() int64 {
	if r.Step > 0 {
		if r.Stop <= r.Start {
			return 0
		}
		return (r.Stop - r.Start + r.Step - 1) / r.Step
	}
	if r.Stop >= r.Start {
		return 0
	}
	step := -r.Step
	return (r.Start - r.Stop + step - 1) / step
}

// materialize reports whether a range is small enough to build: a loop counts
// through any range, but list(range(...)), pickling one or returning one as
// a column allocates its length.
func (r RangeVal) materialize() error {
	if r.Step == 0 {
		return core.Errorf(core.KindRuntime, "range() step must not be zero")
	}
	if n := r.Len(); n > 1<<26 {
		return core.Errorf(core.KindRuntime, "range of %d elements is too large to materialize", n)
	}
	return nil
}

// List builds the range as a list of unboxed ints, or refuses as
// materialize does.
func (r RangeVal) List() (*ListVal, error) {
	if err := r.materialize(); err != nil {
		return nil, err
	}
	ints := make([]int64, r.Len())
	for k := range ints {
		ints[k] = r.Start + int64(k)*r.Step
	}
	return &ListVal{lane: laneInt, ints: ints}, nil
}

// FuncVal is a user-defined function (def or lambda).
type FuncVal struct {
	Name    string
	Params  []Param
	Closure *Frame  // variables of the defining frame: the free variables
	Module  *Module // for tracebacks
	DefLine int

	code *code // the def's or lambda's, compiled by Parse
}

func (*FuncVal) TypeName() string { return "function" }
func (f *FuncVal) Repr() string   { return "<function " + displayName(f) + ">" }

// BuiltinFunc is the Go signature of builtin functions and methods. args
// belongs to the interpreter and is reused after the call returns: keep the
// values, not the slice.
type BuiltinFunc func(in *Interp, args []Value, kwargs map[string]Value) (Value, error)

// BuiltinVal is a function implemented in Go.
type BuiltinVal struct {
	Name string
	Fn   BuiltinFunc

	lane laneFunc // set for the numeric builtins: the same function, on unboxed arguments
}

// laneFunc is a builtin that takes its arguments and returns its result
// without boxing them; Fn wraps it for callers that hold Values.
type laneFunc func(in *Interp, args []val) (val, error)

func (*BuiltinVal) TypeName() string { return "builtin_function_or_method" }
func (b *BuiltinVal) Repr() string   { return "<built-in function " + b.Name + ">" }

// ObjectVal is a native object exposed to scripts: module shims, the _conn
// loopback handle, classifiers, file handles. Attribute lookup first
// consults Attrs, then Methods.
type ObjectVal struct {
	Class   string
	Attrs   *DictVal
	Methods map[string]BuiltinFunc
	// Opaque carries the backing Go state (e.g. *mllib.Classifier).
	Opaque any
}

// NewObject creates a native object of the given class.
func NewObject(class string) *ObjectVal {
	return &ObjectVal{Class: class, Attrs: NewDict(), Methods: map[string]BuiltinFunc{}}
}

func (o *ObjectVal) TypeName() string { return o.Class }
func (o *ObjectVal) Repr() string     { return "<" + o.Class + " object>" }

// Truthy reports Python truthiness.
func Truthy(v Value) bool {
	switch v := v.(type) {
	case NoneVal:
		return false
	case BoolVal:
		return bool(v)
	case IntVal:
		return v != 0
	case FloatVal:
		return v != 0
	case StrVal:
		return len(v) > 0
	case BytesVal:
		return len(v) > 0
	case *ListVal:
		return v.Len() > 0
	case *TupleVal:
		return len(v.Items) > 0
	case *DictVal:
		return v.Len() > 0
	case RangeVal:
		return v.Len() > 0
	default:
		return true
	}
}

// Equal reports deep value equality with Python's numeric cross-type rules
// (1 == 1.0, True == 1).
func Equal(a, b Value) bool {
	if an, aok := asFloat(a); aok {
		if bn, bok := asFloat(b); bok {
			return an == bn
		}
		return false
	}
	switch a := a.(type) {
	case NoneVal:
		_, ok := b.(NoneVal)
		return ok
	case StrVal:
		bs, ok := b.(StrVal)
		return ok && a == bs
	case BytesVal:
		bb, ok := b.(BytesVal)
		return ok && string(a) == string(bb)
	case *ListVal:
		bl, ok := b.(*ListVal)
		if !ok || a.Len() != bl.Len() {
			return false
		}
		for i, n := 0, a.Len(); i < n; i++ {
			if !equalVal(a.at(i), bl.at(i)) {
				return false
			}
		}
		return true
	case *TupleVal:
		bt, ok := b.(*TupleVal)
		if !ok || len(a.Items) != len(bt.Items) {
			return false
		}
		for i := range a.Items {
			if !Equal(a.Items[i], bt.Items[i]) {
				return false
			}
		}
		return true
	case *DictVal:
		bd, ok := b.(*DictVal)
		if !ok || a.Len() != bd.Len() {
			return false
		}
		for _, kv := range a.Items() {
			bv, present, err := bd.Get(kv[0])
			if err != nil || !present || !Equal(kv[1], bv) {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

// asFloat converts numeric values (bool/int/float) to float64.
func asFloat(v Value) (float64, bool) {
	switch v := v.(type) {
	case BoolVal:
		if v {
			return 1, true
		}
		return 0, true
	case IntVal:
		return float64(v), true
	case FloatVal:
		return float64(v), true
	default:
		return 0, false
	}
}

// asInt converts bool/int values to int64.
func asInt(v Value) (int64, bool) {
	switch v := v.(type) {
	case BoolVal:
		if v {
			return 1, true
		}
		return 0, true
	case IntVal:
		return int64(v), true
	default:
		return 0, false
	}
}

// Compare orders two values, returning -1, 0 or +1. Only numbers compare
// with numbers and strings with strings; anything else is a type error.
func Compare(a, b Value) (int, error) {
	if af, ok := asFloat(a); ok {
		if bf, ok := asFloat(b); ok {
			return cmpFloat(af, bf), nil
		}
	}
	if as, ok := a.(StrVal); ok {
		if bs, ok := b.(StrVal); ok {
			return strings.Compare(string(as), string(bs)), nil
		}
	}
	if al, ok := a.(*ListVal); ok {
		if bl, ok := b.(*ListVal); ok {
			for i, n := 0, min(al.Len(), bl.Len()); i < n; i++ {
				c, err := cmpVal(al.at(i), bl.at(i))
				if err != nil || c != 0 {
					return c, err
				}
			}
			return cmp.Compare(al.Len(), bl.Len()), nil
		}
	}
	return 0, core.Errorf(core.KindType,
		"'<' not supported between instances of '%s' and '%s'", a.TypeName(), b.TypeName())
}

// Str renders a value the way Python's str() would: strings are bare,
// everything else uses Repr.
func Str(v Value) string {
	if s, ok := v.(StrVal); ok {
		return string(s)
	}
	return v.Repr()
}

// SortValues sorts a slice of values in place using Compare; the first
// comparison error aborts and is returned.
func SortValues(items []Value) error {
	var sortErr error
	sort.SliceStable(items, func(i, j int) bool {
		if sortErr != nil {
			return false
		}
		c, err := Compare(items[i], items[j])
		if err != nil {
			sortErr = err
			return false
		}
		return c < 0
	})
	return sortErr
}

package script

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// val is a value inside the interpreter: what frame slots, the argument
// stack and every eval result hold. An int or a float travels in bits and
// never touches the heap; everything else rides in ref. The package comment
// says where a val is boxed back into a Value.
type val struct {
	kind kind
	bits uint64 // kInt: the int64; kFloat: the float64's IEEE bits
	ref  Value  // kRef: any Value but an IntVal or a FloatVal; nil is "unbound"
}

type kind uint8

const (
	kRef kind = iota
	kInt
	kFloat
)

var noneV = val{ref: None}

func intV(i int64) val     { return val{kind: kInt, bits: uint64(i)} }
func floatV(f float64) val { return val{kind: kFloat, bits: math.Float64bits(f)} }
func boolV(b bool) val     { return val{ref: BoolVal(b)} } // a bool boxes without allocating

// unbox brings a Value into the lane.
func unbox(v Value) val {
	switch v := v.(type) {
	case IntVal:
		return intV(int64(v))
	case FloatVal:
		return floatV(float64(v))
	}
	return val{ref: v}
}

// box is where a number leaves the lane, and the one place it may allocate.
func (v val) box() Value {
	switch v.kind {
	case kInt:
		return IntVal(v.bits)
	case kFloat:
		return FloatVal(math.Float64frombits(v.bits))
	}
	return v.ref
}

func (v val) bound() bool { return v.kind != kRef || v.ref != nil }
func (v val) int() int64  { return int64(v.bits) }

// float reads a kInt or kFloat as a float64.
func (v val) float() float64 {
	if v.kind == kInt {
		return float64(int64(v.bits))
	}
	return math.Float64frombits(v.bits)
}

// asInt is asInt of the boxed value: ints and bools.
func (v val) asInt() (int64, bool) {
	if v.kind == kInt {
		return v.int(), true
	}
	return asInt(v.ref)
}

// asFloat is asFloat of the boxed value: ints, floats and bools.
func (v val) asFloat() (float64, bool) {
	if v.kind != kRef {
		return v.float(), true
	}
	return asFloat(v.ref)
}

func (v val) truthy() bool {
	if v.kind != kRef {
		return v.float() != 0
	}
	return Truthy(v.ref)
}

// typeName names v's type without boxing it.
func (v val) typeName() string {
	switch v.kind {
	case kInt:
		return "int"
	case kFloat:
		return "float"
	}
	return v.ref.TypeName()
}

// cmpFloat orders two floats the way Compare does: anything unordered (a
// NaN) counts as equal.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpNum orders two numbers in the lane as Compare does: two ints
// exactly, anything else as floats.
func cmpNum(a, b val) int {
	if a.kind == kInt && b.kind == kInt {
		return cmp.Compare(a.int(), b.int())
	}
	return cmpFloat(a.float(), b.float())
}

// equalVal is Equal, cmpVal is Compare: numbers stay in the lane.
func equalVal(a, b val) bool {
	if a.kind == kInt && b.kind == kInt {
		return a.int() == b.int()
	}
	if a.kind != kRef && b.kind != kRef {
		return a.float() == b.float()
	}
	return Equal(a.box(), b.box())
}

func cmpVal(a, b val) (int, error) {
	if a.kind != kRef && b.kind != kRef {
		return cmpNum(a, b), nil
	}
	return Compare(a.box(), b.box())
}

// lane says how a ListVal holds its cells.
type lane uint8

const (
	laneBoxed lane = iota // Items
	laneInt               // ints, None where nulls says so
	laneFloat             // flts, likewise
)

// NewIntList wraps a column of ints as a list without copying or boxing it.
// nulls marks the cells that are None; nil means there are none. The list
// reads both slices in place and copies them before its first write.
func NewIntList(ints []int64, nulls []bool) *ListVal {
	return &ListVal{lane: laneInt, ints: ints, nulls: nulls, shared: true}
}

// NewFloatList is NewIntList for a column of floats.
func NewFloatList(flts []float64, nulls []bool) *ListVal {
	return &ListVal{lane: laneFloat, flts: flts, nulls: nulls, shared: true}
}

// Len returns the number of cells.
func (l *ListVal) Len() int {
	switch l.lane {
	case laneInt:
		return len(l.ints)
	case laneFloat:
		return len(l.flts)
	}
	return len(l.Items)
}

// at reads cell i, which must exist.
func (l *ListVal) at(i int) val {
	switch l.lane {
	case laneInt:
		if l.nulls == nil || !l.nulls[i] {
			return intV(l.ints[i])
		}
		return noneV
	case laneFloat:
		if l.nulls == nil || !l.nulls[i] {
			return floatV(l.flts[i])
		}
		return noneV
	}
	return unbox(l.Items[i])
}

// Boxed returns the cells as boxed values, the list's own slice. A list in
// a typed lane leaves it first, for good: this is the one funnel every
// operation that is not taught the lanes goes through, and what any write
// other than a same-typed store or append does first. The typed slices are
// dropped, never written, so a wrapped column is untouched.
func (l *ListVal) Boxed() []Value {
	if l.lane != laneBoxed {
		items := make([]Value, l.Len())
		for i := range items {
			items[i] = l.at(i).box()
		}
		*l = ListVal{Items: items}
	}
	return l.Items
}

// own makes the typed slices the list's to write.
func (l *ListVal) own() {
	if l.shared {
		l.ints, l.flts, l.nulls = slices.Clone(l.ints), slices.Clone(l.flts), slices.Clone(l.nulls)
		l.shared = false
	}
}

// holds reports whether v can be stored in the list's lane as it is.
func (l *ListVal) holds(v val) bool {
	return (l.lane == laneInt && v.kind == kInt) || (l.lane == laneFloat && v.kind == kFloat)
}

// set stores v in cell i, which must exist.
func (l *ListVal) set(i int, v val) {
	if !l.holds(v) {
		l.Boxed()[i] = v.box()
		return
	}
	l.own()
	if l.lane == laneInt {
		l.ints[i] = v.int()
	} else {
		l.flts[i] = v.float()
	}
	if l.nulls != nil {
		l.nulls[i] = false
	}
}

// push appends v. An empty list takes the lane of the first number pushed,
// so a list a UDF builds from numbers is a column when it is handed back.
func (l *ListVal) push(v val) {
	if l.lane == laneBoxed && len(l.Items) == 0 && v.kind != kRef {
		*l = ListVal{lane: laneInt}
		if v.kind == kFloat {
			l.lane = laneFloat
		}
	}
	if !l.holds(v) {
		l.Items = append(l.Boxed(), v.box())
		return
	}
	l.own()
	if l.lane == laneInt {
		l.ints = append(l.ints, v.int())
	} else {
		l.flts = append(l.flts, v.float())
	}
	if l.nulls != nil {
		l.nulls = append(l.nulls, false)
	}
}

// extend appends src's cells.
func (l *ListVal) extend(src *ListVal) {
	if l.lane == src.lane && l.nulls == nil && src.nulls == nil { // cell for cell, in whichever slice the lane uses
		l.own()
		l.Items, l.ints, l.flts = append(l.Items, src.Items...), append(l.ints, src.ints...), append(l.flts, src.flts...)
		return
	}
	for i, n := 0, src.Len(); i < n; i++ { // n first: src may be l
		l.push(src.at(i))
	}
}

// slice copies cells [lo, hi) into a new list in the same lane.
func (l *ListVal) slice(lo, hi int) *ListVal {
	return &ListVal{
		lane:  l.lane,
		Items: cut(l.Items, lo, hi), ints: cut(l.ints, lo, hi), flts: cut(l.flts, lo, hi), nulls: cut(l.nulls, lo, hi),
	}
}

// cut copies s[lo:hi] if the lane uses s at all.
func cut[T any](s []T, lo, hi int) []T {
	if s == nil {
		return nil
	}
	return slices.Clone(s[lo:hi])
}

// find returns the index of the first cell equal to x, or -1.
func (l *ListVal) find(x val) int {
	for i, n := 0, l.Len(); i < n; i++ {
		if equalVal(l.at(i), x) {
			return i
		}
	}
	return -1
}

// sortLane sorts a typed list without Nones in place and reports whether it
// did. It orders by the less SortValues uses — ints exactly, floats as
// floats — under the same stable sort, so the result is the boxed one's
// cell for cell.
func (l *ListVal) sortLane() bool {
	if l.lane == laneBoxed || l.nulls != nil {
		return false
	}
	l.own()
	if l.lane == laneInt {
		sort.SliceStable(l.ints, func(i, j int) bool { return l.ints[i] < l.ints[j] })
	} else {
		sort.SliceStable(l.flts, func(i, j int) bool { return l.flts[i] < l.flts[j] })
	}
	return true
}

// reverse reverses the list in place.
func (l *ListVal) reverse() {
	l.own()
	slices.Reverse(l.ints)
	slices.Reverse(l.flts)
	slices.Reverse(l.nulls)
	slices.Reverse(l.Items)
}

// Numbers hands out the cells of a list in a typed lane — ints or flts,
// whichever the lane is, and the mask of the cells that are None (nil for
// none) — without copying unless the list wraps someone else's column: the
// caller may keep and write them. A boxed list returns nothing.
func (l *ListVal) Numbers() (ints []int64, flts []float64, nulls []bool) {
	if l.lane == laneBoxed {
		return nil, nil, nil
	}
	l.own()
	l.shared = true // the caller's now: the list copies before its next write
	return l.ints, l.flts, l.nulls
}

// Repr renders the list from whichever lane holds it.
func (l *ListVal) Repr() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, n := 0, l.Len(); i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch v := l.at(i); v.kind {
		case kInt:
			sb.WriteString(strconv.FormatInt(v.int(), 10))
		case kFloat:
			sb.WriteString(FloatVal(v.float()).Repr())
		default:
			sb.WriteString(v.ref.Repr())
		}
	}
	sb.WriteByte(']')
	return sb.String()
}

// Package vec is the vectorized execution core of the monetlite engine:
// type-specialized kernels over storage.Column vectors, selection vectors
// produced by filters and consumed lazily downstream, typed group-key
// hashing, and morsel-driven parallelism shared by built-in operators and
// UDF batches.
//
// Every kernel dispatches on operator and type once, outside the loop,
// and then runs a tight loop over pre-sized slices — the inverse of the
// engine's historical per-row `at(i)` closures and per-row `switch op`.
// Kernels preserve the scalar reference semantics exactly: SQL
// three-valued NULL propagation for arithmetic and comparisons, truthy
// (NULL-is-false) semantics for AND/OR and WHERE, division-by-zero errors
// only for rows that are not NULL, and type errors only when at least one
// row would actually evaluate (an all-NULL or empty operand never raises).
package vec

import (
	"cmp"
	"math"

	"repro/internal/core"
	"repro/internal/storage"
)

// ArithOp is a vectorized arithmetic operator.
type ArithOp int

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

// String renders the SQL spelling of the operator.
func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	default:
		return "%"
	}
}

// CmpOp is a vectorized comparison operator.
type CmpOp int

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// Mirror swaps the operand order of a comparison (a < b ⇔ b > a).
func (op CmpOp) Mirror() CmpOp {
	switch op {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	default:
		return op
	}
}

type number interface{ int64 | float64 }

// Align returns the broadcast-aligned row count of two operands
// (length-1 columns broadcast to the other's length).
func Align(l, r *storage.Column) (int, error) {
	ln, rn := l.Len(), r.Len()
	switch {
	case ln == rn:
		return ln, nil
	case ln == 1:
		return rn, nil
	case rn == 1:
		return ln, nil
	default:
		return 0, core.Errorf(core.KindConstraint,
			"column length mismatch: %d vs %d", ln, rn)
	}
}

// Numeric reports whether a column type participates in arithmetic
// (booleans coerce to 0/1, matching the scalar reference).
func Numeric(t storage.Type) bool {
	return t == storage.TInt || t == storage.TFloat || t == storage.TBool
}

// AllNull returns an n-row column of the given type with every row NULL;
// its value slots are emptyTyped's zeroed buffers.
func AllNull(typ storage.Type, n int) *storage.Column {
	out := emptyTyped(typ, n)
	if n > 0 {
		out.Nulls = make([]bool, n)
		for i := range out.Nulls {
			out.Nulls[i] = true
		}
	}
	return out
}

// emptyTyped returns a column with a pre-sized (zeroed) value vector.
func emptyTyped(typ storage.Type, n int) *storage.Column {
	out := &storage.Column{Typ: typ}
	switch typ {
	case storage.TInt:
		out.Ints = make([]int64, n)
	case storage.TFloat:
		out.Flts = make([]float64, n)
	case storage.TStr:
		out.Strs = make([]string, n)
	case storage.TBool:
		out.Bools = make([]bool, n)
	case storage.TBlob:
		out.Blobs = make([][]byte, n)
	}
	return out
}

// scalarNull reports whether either operand is a NULL constant — the
// whole result is NULL then, before any type or zero-divisor checks
// (matching the scalar reference's per-row null-first ordering).
func scalarNull(l, r *storage.Column) bool {
	return (l.Len() == 1 && l.IsNull(0)) || (r.Len() == 1 && r.IsNull(0))
}

// combinedNulls builds the output validity of a null-propagating binary
// op: true where either input row is NULL. Returns nil when no row is.
func combinedNulls(n int, l, r *storage.Column) []bool {
	var out []bool
	any := false
	for _, c := range []*storage.Column{l, r} {
		if c.Nulls == nil {
			continue
		}
		if c.Len() == 1 {
			if c.Nulls[0] {
				// scalar NULL: short-circuited by callers, but be total
				out = make([]bool, n)
				for i := range out {
					out[i] = true
				}
				return out
			}
			continue
		}
		if out == nil {
			out = make([]bool, n)
		}
		for i, v := range c.Nulls {
			if v {
				out[i] = true
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	return out
}

// anyBothPresent reports whether some aligned row has both operands
// non-NULL — the condition under which the scalar reference would have
// reached a type check at all.
func anyBothPresent(n int, l, r *storage.Column) bool {
	if n == 0 {
		return false
	}
	lb, rb := l.Len() == 1, r.Len() == 1
	for i := 0; i < n; i++ {
		li, ri := i, i
		if lb {
			li = 0
		}
		if rb {
			ri = 0
		}
		if !l.IsNull(li) && !r.IsNull(ri) {
			return true
		}
	}
	return false
}

func errDivZero() error { return core.Errorf(core.KindRuntime, "division by zero") }

// floatView returns the column's values as a float64 vector, converting
// ints and bools through a pooled scratch buffer (pooled=true — caller
// must PutFloats after the kernel).
func floatView(c *storage.Column) (vals []float64, pooled bool) {
	switch c.Typ {
	case storage.TFloat:
		return c.Flts, false
	case storage.TInt:
		out := GetFloats(len(c.Ints))
		for i, v := range c.Ints {
			out[i] = float64(v)
		}
		return out, true
	default: // TBool, pre-validated numeric
		out := GetFloats(len(c.Bools))
		for i, v := range c.Bools {
			if v {
				out[i] = 1
			} else {
				out[i] = 0
			}
		}
		return out, true
	}
}

// ---- arithmetic ----

// Arith evaluates l op r over n broadcast-aligned rows. Both-int inputs
// use exact int64 kernels; any other numeric mix promotes to float64.
func Arith(p Pol, op ArithOp, l, r *storage.Column, n int) (*storage.Column, error) {
	bothInt := l.Typ == storage.TInt && r.Typ == storage.TInt
	resTyp := storage.TFloat
	if bothInt {
		resTyp = storage.TInt
	}
	if n == 0 {
		return emptyTyped(resTyp, 0), nil
	}
	if !Numeric(l.Typ) || !Numeric(r.Typ) {
		if anyBothPresent(n, l, r) {
			return nil, core.Errorf(core.KindType,
				"cannot apply %q to %s and %s", op.String(), l.Typ, r.Typ)
		}
		return AllNull(storage.TFloat, n), nil
	}
	if scalarNull(l, r) {
		return AllNull(resTyp, n), nil
	}
	nulls := combinedNulls(n, l, r)
	if bothInt {
		out := &storage.Column{Typ: storage.TInt, Ints: make([]int64, n), Nulls: nulls}
		var err error
		if op == OpMod {
			err = modInt(p, out.Ints, l.Ints, r.Ints, nulls, n)
		} else {
			err = arithVec(p, op, out.Ints, l.Ints, r.Ints, nulls, n)
		}
		if err != nil {
			return nil, err
		}
		zeroUnderNulls(p, out.Ints, nulls)
		return out, nil
	}
	lv, lp := floatView(l)
	rv, rp := floatView(r)
	out := &storage.Column{Typ: storage.TFloat, Flts: make([]float64, n), Nulls: nulls}
	var err error
	if op == OpMod {
		err = modFlt(p, out.Flts, lv, rv, nulls, n)
	} else {
		err = arithVec(p, op, out.Flts, lv, rv, nulls, n)
	}
	if lp {
		PutFloats(lv)
	}
	if rp {
		PutFloats(rv)
	}
	if err != nil {
		return nil, err
	}
	zeroUnderNulls(p, out.Flts, nulls)
	return out, nil
}

// zeroUnderNulls resets the values beneath NULL rows to the zero value.
// The branch-free kernels compute garbage there (harmless to the
// engine's IsNull-first accessors), but raw vectors cross the zero-copy
// GO-UDF boundary where NULLs are contractually Go zero values, and the
// scalar reference's AppendNull stores zeros — this keeps outputs
// bit-identical.
func zeroUnderNulls[T comparable](p Pol, dst []T, nulls []bool) {
	if nulls == nil {
		return
	}
	var zero T
	p.Run(len(dst), func(lo, hi int) {
		d, ns := dst[lo:hi], nulls[lo:hi]
		for i, nv := range ns {
			if nv {
				d[i] = zero
			}
		}
	})
}

// arithVec dispatches op (Add/Sub/Mul/Div — Mod is per-type) and the
// operand shape once, then runs tight generic loops morsel-parallel
// (disjoint output ranges, no locking).
func arithVec[T number](p Pol, op ArithOp, dst, a, b []T, nulls []bool, n int) error {
	av, bv := len(a) == n, len(b) == n
	switch op {
	case OpAdd:
		switch {
		case av && bv:
			p.Run(n, func(lo, hi int) { addVV(dst[lo:hi], a[lo:hi], b[lo:hi]) })
		case av:
			p.Run(n, func(lo, hi int) { addVS(dst[lo:hi], a[lo:hi], b[0]) })
		default:
			p.Run(n, func(lo, hi int) { addVS(dst[lo:hi], b[lo:hi], a[0]) })
		}
	case OpSub:
		switch {
		case av && bv:
			p.Run(n, func(lo, hi int) { subVV(dst[lo:hi], a[lo:hi], b[lo:hi]) })
		case av:
			p.Run(n, func(lo, hi int) { subVS(dst[lo:hi], a[lo:hi], b[0]) })
		default:
			p.Run(n, func(lo, hi int) { subSV(dst[lo:hi], a[0], b[lo:hi]) })
		}
	case OpMul:
		switch {
		case av && bv:
			p.Run(n, func(lo, hi int) { mulVV(dst[lo:hi], a[lo:hi], b[lo:hi]) })
		case av:
			p.Run(n, func(lo, hi int) { mulVS(dst[lo:hi], a[lo:hi], b[0]) })
		default:
			p.Run(n, func(lo, hi int) { mulVS(dst[lo:hi], b[lo:hi], a[0]) })
		}
	case OpDiv:
		switch {
		case av && bv:
			return p.RunErr(n, func(lo, hi int) error {
				return divVV(dst[lo:hi], a[lo:hi], b[lo:hi], subNulls(nulls, lo, hi))
			})
		case av:
			return divVS(p, dst, a, b[0], nulls, n)
		default:
			return p.RunErr(n, func(lo, hi int) error {
				return divSV(dst[lo:hi], a[0], b[lo:hi], subNulls(nulls, lo, hi))
			})
		}
	}
	return nil
}

func subNulls(nulls []bool, lo, hi int) []bool {
	if nulls == nil {
		return nil
	}
	return nulls[lo:hi]
}

// Branch-free kernels for the ops that cannot fail. NULL rows compute
// harmless garbage over zero values; the validity bitmap masks them.

func addVV[T number](dst, a, b []T) {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

func addVS[T number](dst, a []T, b T) {
	for i := range dst {
		dst[i] = a[i] + b
	}
}

func subVV[T number](dst, a, b []T) {
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

func subVS[T number](dst, a []T, b T) {
	for i := range dst {
		dst[i] = a[i] - b
	}
}

func subSV[T number](dst []T, a T, b []T) {
	for i := range dst {
		dst[i] = a - b[i]
	}
}

func mulVV[T number](dst, a, b []T) {
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

func mulVS[T number](dst, a []T, b T) {
	for i := range dst {
		dst[i] = a[i] * b
	}
}

// Division and modulo check the divisor per row; a zero divisor errors
// unless the row is NULL (the scalar reference never reaches the check
// on NULL rows).

func divVV[T number](dst, a, b []T, nulls []bool) error {
	for i := range dst {
		if b[i] == 0 {
			if nulls != nil && nulls[i] {
				continue
			}
			return errDivZero()
		}
		dst[i] = a[i] / b[i]
	}
	return nil
}

func divSV[T number](dst []T, a T, b []T, nulls []bool) error {
	for i := range dst {
		if b[i] == 0 {
			if nulls != nil && nulls[i] {
				continue
			}
			return errDivZero()
		}
		dst[i] = a / b[i]
	}
	return nil
}

// divVS handles a constant divisor: the zero check hoists out of the
// loop entirely (a zero divisor errors iff any row is non-NULL).
func divVS[T number](p Pol, dst, a []T, b T, nulls []bool, n int) error {
	if b == 0 {
		return scalarZeroDivisor(nulls, n)
	}
	p.Run(n, func(lo, hi int) {
		d, s := dst[lo:hi], a[lo:hi]
		for i := range d {
			d[i] = s[i] / b
		}
	})
	return nil
}

// modInt is integer modulo over the three operand shapes.
func modInt(p Pol, dst, a, b []int64, nulls []bool, n int) error {
	av, bv := len(a) == n, len(b) == n
	switch {
	case av && bv:
		return p.RunErr(n, func(lo, hi int) error {
			return modIntVV(dst[lo:hi], a[lo:hi], b[lo:hi], subNulls(nulls, lo, hi))
		})
	case av:
		if b[0] == 0 {
			return scalarZeroDivisor(nulls, n)
		}
		c := b[0]
		p.Run(n, func(lo, hi int) {
			d, s := dst[lo:hi], a[lo:hi]
			for i := range d {
				d[i] = s[i] % c
			}
		})
		return nil
	default:
		c := a[0]
		return p.RunErr(n, func(lo, hi int) error {
			d, s := dst[lo:hi], b[lo:hi]
			ns := subNulls(nulls, lo, hi)
			for i := range d {
				if s[i] == 0 {
					if ns != nil && ns[i] {
						continue
					}
					return errDivZero()
				}
				d[i] = c % s[i]
			}
			return nil
		})
	}
}

func modIntVV(dst, a, b []int64, nulls []bool) error {
	for i := range dst {
		if b[i] == 0 {
			if nulls != nil && nulls[i] {
				continue
			}
			return errDivZero()
		}
		dst[i] = a[i] % b[i]
	}
	return nil
}

// modFlt is float modulo (math.Mod) over the three operand shapes.
func modFlt(p Pol, dst, a, b []float64, nulls []bool, n int) error {
	av, bv := len(a) == n, len(b) == n
	switch {
	case av && bv:
		return p.RunErr(n, func(lo, hi int) error {
			return modFltVV(dst[lo:hi], a[lo:hi], b[lo:hi], subNulls(nulls, lo, hi))
		})
	case av:
		if b[0] == 0 {
			return scalarZeroDivisor(nulls, n)
		}
		c := b[0]
		p.Run(n, func(lo, hi int) {
			d, s := dst[lo:hi], a[lo:hi]
			for i := range d {
				d[i] = math.Mod(s[i], c)
			}
		})
		return nil
	default:
		c := a[0]
		return p.RunErr(n, func(lo, hi int) error {
			d, s := dst[lo:hi], b[lo:hi]
			ns := subNulls(nulls, lo, hi)
			for i := range d {
				if s[i] == 0 {
					if ns != nil && ns[i] {
						continue
					}
					return errDivZero()
				}
				d[i] = math.Mod(c, s[i])
			}
			return nil
		})
	}
}

func modFltVV(dst, a, b []float64, nulls []bool) error {
	for i := range dst {
		if b[i] == 0 {
			if nulls != nil && nulls[i] {
				continue
			}
			return errDivZero()
		}
		dst[i] = math.Mod(a[i], b[i])
	}
	return nil
}

// scalarZeroDivisor resolves the constant-divisor-is-zero case: an error
// iff any row is non-NULL (an all-NULL column never reaches the check).
func scalarZeroDivisor(nulls []bool, n int) error {
	if nulls == nil {
		if n == 0 {
			return nil
		}
		return errDivZero()
	}
	for i := 0; i < n; i++ {
		if !nulls[i] {
			return errDivZero()
		}
	}
	return nil
}

// ---- comparisons ----

// Compare evaluates l op r over n broadcast-aligned rows with SQL
// three-valued semantics (NULL operands yield NULL). Both-int inputs
// compare exactly; numeric mixes promote to float64; strings compare
// lexicographically.
func Compare(p Pol, op CmpOp, l, r *storage.Column, n int) (*storage.Column, error) {
	if n == 0 {
		return emptyTyped(storage.TBool, 0), nil
	}
	if scalarNull(l, r) {
		return AllNull(storage.TBool, n), nil
	}
	bothInt := l.Typ == storage.TInt && r.Typ == storage.TInt
	bothNum := Numeric(l.Typ) && Numeric(r.Typ)
	bothStr := l.Typ == storage.TStr && r.Typ == storage.TStr
	if !bothNum && !bothStr {
		if anyBothPresent(n, l, r) {
			return nil, core.Errorf(core.KindType,
				"cannot compare %s with %s", l.Typ, r.Typ)
		}
		return AllNull(storage.TBool, n), nil
	}
	out := &storage.Column{
		Typ:   storage.TBool,
		Bools: make([]bool, n),
		Nulls: combinedNulls(n, l, r),
	}
	switch {
	case bothInt:
		cmpVec(p, op, out.Bools, l.Ints, r.Ints, n)
	case bothStr:
		cmpVec(p, op, out.Bools, l.Strs, r.Strs, n)
	default:
		lv, lp := floatView(l)
		rv, rp := floatView(r)
		cmpVec(p, op, out.Bools, lv, rv, n)
		if lp {
			PutFloats(lv)
		}
		if rp {
			PutFloats(rv)
		}
	}
	zeroUnderNulls(p, out.Bools, out.Nulls)
	return out, nil
}

// cmpVec dispatches op and shape once, then runs per-op tight loops.
func cmpVec[T cmp.Ordered](p Pol, op CmpOp, dst []bool, a, b []T, n int) {
	switch {
	case len(a) == n && len(b) == n:
		p.Run(n, func(lo, hi int) { cmpVV(op, dst[lo:hi], a[lo:hi], b[lo:hi]) })
	case len(b) == 1:
		p.Run(n, func(lo, hi int) { cmpVS(op, dst[lo:hi], a[lo:hi], b[0]) })
	default:
		op = op.Mirror()
		p.Run(n, func(lo, hi int) { cmpVS(op, dst[lo:hi], b[lo:hi], a[0]) })
	}
}

// The comparison loops are written in terms of < and > only, matching
// the scalar reference's three-way compareAt exactly: a float NaN is
// neither less nor greater, so it lands on cmp==0 — NaN "equals"
// anything, <= and >= hold, < and > do not. For ints and strings these
// formulations reduce to the direct operators.

func cmpVV[T cmp.Ordered](op CmpOp, dst []bool, a, b []T) {
	switch op {
	case CmpEq:
		for i := range dst {
			dst[i] = !(a[i] < b[i] || a[i] > b[i])
		}
	case CmpNe:
		for i := range dst {
			dst[i] = a[i] < b[i] || a[i] > b[i]
		}
	case CmpLt:
		for i := range dst {
			dst[i] = a[i] < b[i]
		}
	case CmpLe:
		for i := range dst {
			dst[i] = !(a[i] > b[i])
		}
	case CmpGt:
		for i := range dst {
			dst[i] = a[i] > b[i]
		}
	case CmpGe:
		for i := range dst {
			dst[i] = !(a[i] < b[i])
		}
	}
}

func cmpVS[T cmp.Ordered](op CmpOp, dst []bool, a []T, b T) {
	switch op {
	case CmpEq:
		for i := range dst {
			dst[i] = !(a[i] < b || a[i] > b)
		}
	case CmpNe:
		for i := range dst {
			dst[i] = a[i] < b || a[i] > b
		}
	case CmpLt:
		for i := range dst {
			dst[i] = a[i] < b
		}
	case CmpLe:
		for i := range dst {
			dst[i] = !(a[i] > b)
		}
	case CmpGt:
		for i := range dst {
			dst[i] = a[i] > b
		}
	case CmpGe:
		for i := range dst {
			dst[i] = !(a[i] < b)
		}
	}
}

// ---- boolean logic ----

// TruthyInto writes the truthiness of each of the column's n
// broadcast-aligned rows into dst: NULL is false, numbers are non-zero,
// strings non-empty (the WHERE/AND/OR semantics of the scalar
// reference).
func TruthyInto(p Pol, dst []bool, c *storage.Column, n int) {
	if c.Len() == 1 && n != 1 {
		v := truthyScalar(c)
		p.Run(n, func(lo, hi int) {
			d := dst[lo:hi]
			for i := range d {
				d[i] = v
			}
		})
		return
	}
	switch c.Typ {
	case storage.TBool:
		p.Run(n, func(lo, hi int) {
			d, s := dst[lo:hi], c.Bools[lo:hi]
			copy(d, s)
			maskNulls(d, c.Nulls, lo, hi)
		})
	case storage.TInt:
		p.Run(n, func(lo, hi int) {
			d, s := dst[lo:hi], c.Ints[lo:hi]
			for i := range d {
				d[i] = s[i] != 0
			}
			maskNulls(d, c.Nulls, lo, hi)
		})
	case storage.TFloat:
		p.Run(n, func(lo, hi int) {
			d, s := dst[lo:hi], c.Flts[lo:hi]
			for i := range d {
				d[i] = s[i] != 0
			}
			maskNulls(d, c.Nulls, lo, hi)
		})
	case storage.TStr:
		p.Run(n, func(lo, hi int) {
			d, s := dst[lo:hi], c.Strs[lo:hi]
			for i := range d {
				d[i] = s[i] != ""
			}
			maskNulls(d, c.Nulls, lo, hi)
		})
	default: // TBlob is never truthy, matching the scalar reference
		p.Run(n, func(lo, hi int) {
			d := dst[lo:hi]
			for i := range d {
				d[i] = false
			}
		})
	}
}

func maskNulls(d []bool, nulls []bool, lo, hi int) {
	if nulls == nil {
		return
	}
	for i, v := range nulls[lo:hi] {
		if v {
			d[i] = false
		}
	}
}

func truthyScalar(c *storage.Column) bool {
	if c.IsNull(0) {
		return false
	}
	switch c.Typ {
	case storage.TBool:
		return c.Bools[0]
	case storage.TInt:
		return c.Ints[0] != 0
	case storage.TFloat:
		return c.Flts[0] != 0
	case storage.TStr:
		return c.Strs[0] != ""
	default:
		return false
	}
}

// Logic evaluates AND/OR over truthy masks. The result is never NULL
// (NULL operands count as false), matching the scalar reference.
func Logic(p Pol, and bool, l, r *storage.Column, n int) *storage.Column {
	out := &storage.Column{Typ: storage.TBool, Bools: make([]bool, n)}
	if n == 0 {
		return out
	}
	TruthyInto(p, out.Bools, l, n)
	rm := GetBools(n)
	TruthyInto(p, rm, r, n)
	if and {
		p.Run(n, func(lo, hi int) {
			d, s := out.Bools[lo:hi], rm[lo:hi]
			for i := range d {
				d[i] = d[i] && s[i]
			}
		})
	} else {
		p.Run(n, func(lo, hi int) {
			d, s := out.Bools[lo:hi], rm[lo:hi]
			for i := range d {
				d[i] = d[i] || s[i]
			}
		})
	}
	PutBools(rm) // p.Run is synchronous: the closures above are done with rm
	return out
}

// Not negates truthiness per row; NULL rows stay NULL (scalar NOT
// propagates NULL, unlike AND/OR).
func Not(p Pol, x *storage.Column) *storage.Column {
	n := x.Len()
	out := &storage.Column{Typ: storage.TBool, Bools: make([]bool, n)}
	if n == 0 {
		return out
	}
	TruthyInto(p, out.Bools, x, n)
	p.Run(n, func(lo, hi int) {
		d := out.Bools[lo:hi]
		for i := range d {
			d[i] = !d[i]
		}
	})
	if x.Nulls != nil {
		out.Nulls = append([]bool(nil), x.Nulls...)
		zeroUnderNulls(p, out.Bools, out.Nulls)
	}
	return out
}

// Neg negates a numeric column, propagating NULLs. A non-numeric column
// errors only if it has a non-NULL row (the scalar reference checks the
// type per non-NULL row).
func Neg(p Pol, x *storage.Column) (*storage.Column, error) {
	n := x.Len()
	switch x.Typ {
	case storage.TInt:
		out := &storage.Column{Typ: storage.TInt, Ints: make([]int64, n)}
		p.Run(n, func(lo, hi int) {
			d, s := out.Ints[lo:hi], x.Ints[lo:hi]
			for i := range d {
				d[i] = -s[i]
			}
		})
		copyNegNulls(p, out, x)
		return out, nil
	case storage.TFloat:
		out := &storage.Column{Typ: storage.TFloat, Flts: make([]float64, n)}
		p.Run(n, func(lo, hi int) {
			d, s := out.Flts[lo:hi], x.Flts[lo:hi]
			for i := range d {
				d[i] = -s[i]
			}
		})
		copyNegNulls(p, out, x)
		return out, nil
	default:
		for i := 0; i < n; i++ {
			if !x.IsNull(i) {
				return nil, core.Errorf(core.KindType, "cannot negate %s", x.Typ)
			}
		}
		return AllNull(x.Typ, n), nil
	}
}

// copyNegNulls copies the validity bitmap and zeroes values under NULLs
// (the scalar reference appends zero values for NULL rows).
func copyNegNulls(p Pol, out, x *storage.Column) {
	if x.Nulls == nil {
		return
	}
	out.Nulls = append([]bool(nil), x.Nulls...)
	switch out.Typ {
	case storage.TInt:
		zeroUnderNulls(p, out.Ints, out.Nulls)
	case storage.TFloat:
		zeroUnderNulls(p, out.Flts, out.Nulls)
	}
}

// IsNull builds the IS [NOT] NULL mask for a column — a tight loop over
// the validity bitmap, never NULL itself.
func IsNull(p Pol, x *storage.Column, neg bool) *storage.Column {
	n := x.Len()
	out := &storage.Column{Typ: storage.TBool, Bools: make([]bool, n)}
	if x.Nulls == nil {
		if neg {
			for i := range out.Bools {
				out.Bools[i] = true
			}
		}
		return out
	}
	p.Run(n, func(lo, hi int) {
		d, s := out.Bools[lo:hi], x.Nulls[lo:hi]
		for i := range d {
			d[i] = s[i] != neg
		}
	})
	return out
}

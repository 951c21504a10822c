package vec

import (
	"cmp"
	"sort"

	"repro/internal/storage"
)

// A selection vector is a []int32 of qualifying row indexes, ascending.
// WHERE produces one; projection, aggregation and LIMIT consume it
// lazily, deferring row materialization to result build. nil means "all
// rows".
//
// Builders run one branchless pass per morsel: every row writes its
// index into the morsel's output region and the cursor advances by the
// predicate bit (no unpredictable branch at ~50% selectivity), then the
// regions compact with memmoves. Morsels fill disjoint regions, so the
// output stays in ascending row order regardless of scheduling.
//
// A filtered aggregate needs only a morsel of the selection at a time, so
// for one compare-with-constant it builds none (Counted): a first pass
// counts the qualifying rows of each block and stores nothing, and a
// second fills any run of them into a buffer the caller owns, skipping at
// most a block to reach the run's first row.

// b2i converts a predicate bit without a branch (the compiler emits
// SETcc for this shape).
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// fillCompact runs the region-fill/compact pattern shared by all
// selection builders. fill writes qualifying indexes of [lo,hi) into dst
// (one region per morsel, len hi-lo) and returns how many it wrote.
func fillCompact(p Pol, n int, fill func(dst []int32, lo, hi int) int) []int32 {
	if n == 0 {
		return []int32{}
	}
	nm := p.NumMorsels(n)
	sel := make([]int32, n)
	counts := make([]int, nm)
	p.RunIdx(n, func(m, lo, hi int) { counts[m] = fill(sel[lo:hi], lo, hi) })
	ms := p.Morsel()
	pos := counts[0]
	for m := 1; m < nm; m++ {
		lo := m * ms
		copy(sel[pos:pos+counts[m]], sel[lo:lo+counts[m]])
		pos += counts[m]
	}
	if pos < n/2 {
		// low selectivity: don't pin the full-size backing array
		out := make([]int32, pos)
		copy(out, sel[:pos])
		return out
	}
	return sel[:pos:pos]
}

// SelectTruthy builds the selection of rows where the predicate column
// is truthy (NULL is false).
func SelectTruthy(p Pol, pred *storage.Column) []int32 {
	return fillCompact(p, pred.Len(), func(dst []int32, lo, hi int) int {
		return fillTruthy(dst, pred, lo, hi)
	})
}

func fillTruthy(dst []int32, c *storage.Column, lo, hi int) int {
	switch c.Typ {
	case storage.TBool:
		return fillTrue(dst, c.Bools, c.Nulls, lo, hi)
	case storage.TInt:
		return fillNZ(dst, c.Ints, 0, c.Nulls, lo, hi)
	case storage.TFloat:
		return fillNZ(dst, c.Flts, 0, c.Nulls, lo, hi)
	case storage.TStr:
		return fillNZ(dst, c.Strs, "", c.Nulls, lo, hi)
	default:
		return 0
	}
}

func fillTrue(dst []int32, vals []bool, nulls []bool, lo, hi int) int {
	k := 0
	if nulls == nil {
		for i := lo; i < hi; i++ {
			dst[k] = int32(i)
			k += b2i(vals[i])
		}
		return k
	}
	for i := lo; i < hi; i++ {
		dst[k] = int32(i)
		k += b2i(vals[i] && !nulls[i])
	}
	return k
}

func fillNZ[T comparable](dst []int32, vals []T, zero T, nulls []bool, lo, hi int) int {
	k := 0
	if nulls == nil {
		for i := lo; i < hi; i++ {
			dst[k] = int32(i)
			k += b2i(vals[i] != zero)
		}
		return k
	}
	for i := lo; i < hi; i++ {
		dst[k] = int32(i)
		k += b2i(vals[i] != zero && !nulls[i])
	}
	return k
}

// Fusable reports whether SelectCompareConst supports a column/literal
// pairing — the single source of truth planners must consult before
// relying on the fused path (e.g. to short-circuit an AND chain safely).
func Fusable(col, lit *storage.Column) bool {
	if lit.Len() != 1 {
		return false
	}
	if lit.IsNull(0) {
		return true
	}
	switch {
	case col.Typ == storage.TInt && lit.Typ == storage.TInt:
		return true
	case col.Typ == storage.TFloat && Numeric(lit.Typ):
		return true
	case col.Typ == storage.TStr && lit.Typ == storage.TStr:
		return true
	default:
		return false
	}
}

// SelectCompareConst is the fused filter fast path: column-vs-constant
// comparison emitting the selection directly, with no intermediate bool
// column. handled=false falls back to the generic predicate path
// (unsupported type pairing, per Fusable). NULL rows never qualify; a
// NULL constant selects nothing.
func SelectCompareConst(p Pol, op CmpOp, col, lit *storage.Column) (sel []int32, handled bool) {
	if !Fusable(col, lit) {
		return nil, false
	}
	if lit.IsNull(0) {
		return []int32{}, true
	}
	_, fill := compareConst(op, col, lit)
	return fillCompact(p, col.Len(), fill), true
}

// compareConst picks a fused comparison's typed scanCmp and fillCmp.
func compareConst(op CmpOp, col, lit *storage.Column) (
	scan func(dst []int32, lo, hi, skip int) int, fill func(dst []int32, lo, hi int) int) {
	switch {
	case col.Typ == storage.TInt && lit.Typ == storage.TInt:
		return compareLoops(op, col.Ints, lit.Ints[0], col.Nulls)
	case col.Typ == storage.TFloat:
		return compareLoops(op, col.Flts, litFloat(lit), col.Nulls)
	default:
		return compareLoops(op, col.Strs, lit.Strs[0], col.Nulls)
	}
}

func compareLoops[T cmp.Ordered](op CmpOp, vals []T, c T, nulls []bool) (
	func(dst []int32, lo, hi, skip int) int, func(dst []int32, lo, hi int) int) {
	return func(dst []int32, lo, hi, skip int) int { return scanCmp(op, dst, vals, c, nulls, lo, hi, skip) },
		func(dst []int32, lo, hi int) int { return fillCmp(op, dst, vals, c, nulls, lo, hi) }
}

func litFloat(lit *storage.Column) float64 {
	switch lit.Typ {
	case storage.TFloat:
		return lit.Flts[0]
	case storage.TInt:
		return float64(lit.Ints[0])
	default:
		if lit.Bools[0] {
			return 1
		}
		return 0
	}
}

// fillCmp dispatches the operator (and NULL-freeness) once, then runs a
// branchless write-all/advance-by-bit loop.
func fillCmp[T cmp.Ordered](op CmpOp, dst []int32, vals []T, c T, nulls []bool, lo, hi int) int {
	lt, gt, neg := cmpShape(op)
	k := 0
	switch {
	case nulls != nil && gt == 0:
		for i := lo; i < hi; i++ {
			dst[k] = int32(i)
			k += (b2i(vals[i] < c) ^ neg) &^ b2i(nulls[i])
		}
	case nulls != nil && lt == 0:
		for i := lo; i < hi; i++ {
			dst[k] = int32(i)
			k += (b2i(c < vals[i]) ^ neg) &^ b2i(nulls[i])
		}
	case nulls != nil:
		for i := lo; i < hi; i++ {
			dst[k] = int32(i)
			k += (b2i(vals[i] < c) | b2i(c < vals[i]) ^ neg) &^ b2i(nulls[i])
		}
	case gt == 0:
		for i := lo; i < hi; i++ {
			dst[k] = int32(i)
			k += b2i(vals[i] < c) ^ neg
		}
	case lt == 0:
		for i := lo; i < hi; i++ {
			dst[k] = int32(i)
			k += b2i(c < vals[i]) ^ neg
		}
	default:
		for i := lo; i < hi; i++ {
			dst[k] = int32(i)
			k += b2i(vals[i] < c) | b2i(c < vals[i]) ^ neg
		}
	}
	return k
}

// cmpShape reduces op to a negation (neg) of v < c (lt), c < v (gt) or
// either, built from < alone like cmpVV/cmpVS, so that NaN, which passes
// neither, qualifies for =, <= and >= as it lands on cmp==0 in the scalar
// reference's three-way compareAt.
func cmpShape(op CmpOp) (lt, gt, neg int) {
	return b2i(op != CmpGt && op != CmpLe), b2i(op != CmpLt && op != CmpGe), b2i(op == CmpGe || op == CmpLe || op == CmpEq)
}

// Counted is the selection SelectCompareConst would build, counted per
// block of the column but not stored, so that any run of it can be filled
// where it is needed: a filtered aggregate's first pass; Fill its second.
type Counted struct {
	rows, block int
	starts      []int // starts[b] rows qualify before block b
	scan        func(dst []int32, lo, hi, skip int) int
	fill        func(dst []int32, lo, hi int) int
}

// CountCompareConst counts, storing no row, what SelectCompareConst
// selects in each block of at most 1024 rows, in morsels of p's size. A
// stopped run leaves counts out: re-check p.Stop. Callers check Fusable.
func CountCompareConst(p Pol, op CmpOp, col, lit *storage.Column) *Counted {
	c := &Counted{rows: col.Len(), block: min(p.Morsel(), 1024)}
	c.starts = make([]int, (c.rows+c.block-1)/c.block+1)
	if lit.IsNull(0) {
		return c
	}
	c.scan, c.fill = compareConst(op, col, lit)
	p.MorselSize = max(p.Morsel()/c.block, 1)
	p.Run(len(c.starts)-1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			c.starts[b+1] = c.scan(nil, b*c.block, min((b+1)*c.block, c.rows), 0)
		}
	})
	for b := 1; b < len(c.starts); b++ {
		c.starts[b] += c.starts[b-1]
	}
	return c
}

// Len is how many rows qualify.
func (c *Counted) Len() int { return c.starts[len(c.starts)-1] }

// Fill writes into dst the indexes of the qualifying rows first,
// first+1, ... in row order until dst is full; there must be that many.
// It skips at most a block to reach row first, and runs fillCmp over each
// block whose rows fit whole.
func (c *Counted) Fill(dst []int32, first int) {
	b := sort.Search(len(c.starts)-1, func(b int) bool { return c.starts[b+1] > first })
	k := c.scan(dst, b*c.block, min((b+1)*c.block, c.rows), first-c.starts[b])
	for b++; k < len(dst); b++ {
		lo, hi := b*c.block, min((b+1)*c.block, c.rows)
		if c.starts[b+1]-c.starts[b] < len(dst)-k {
			k += c.fill(dst[k:], lo, hi) // fillCmp may write one past its rows
		} else {
			k += c.scan(dst[k:], lo, hi, 0)
		}
	}
}

// scanCmp counts the rows of [lo,hi) fillCmp keeps when dst is nil, else
// skips skip of them and fills dst with the next until it is full. Only a
// count without NULLs gets a loop per test; the rest mask both tests, at
// half the speed, which the skip and the bounded fill (two blocks a
// morsel at most) can afford.
func scanCmp[T cmp.Ordered](op CmpOp, dst []int32, vals []T, c T, nulls []bool, lo, hi, skip int) int {
	lt, gt, neg := cmpShape(op)
	k := 0
	switch {
	case dst != nil:
		for k = -skip; lo < hi && k < len(dst); lo++ {
			dst[max(k, 0)] = int32(lo)
			k += (b2i(vals[lo] < c)&lt | b2i(c < vals[lo])&gt ^ neg) &^ b2i(nulls != nil && nulls[lo])
		}
	case nulls != nil:
		for i := lo; i < hi; i++ {
			k += (b2i(vals[i] < c)&lt | b2i(c < vals[i])&gt ^ neg) &^ b2i(nulls[i])
		}
	case gt == 0:
		for _, v := range vals[lo:hi] {
			k += b2i(v < c) ^ neg
		}
	case lt == 0:
		for _, v := range vals[lo:hi] {
			k += b2i(c < v) ^ neg
		}
	default:
		for _, v := range vals[lo:hi] {
			k += b2i(v < c) | b2i(c < v) ^ neg
		}
	}
	return max(k, 0)
}

// Intersect merges two ascending selections — how an AND of fused
// filter conjuncts combines without re-scanning.
func Intersect(a, b []int32) []int32 {
	out := make([]int32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

package vec

import (
	"cmp"
	"sort"
	"sync"

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
// An AND of compares with constants filters in one pass, block by block:
// the first conjunct fills the block's candidates and each further one
// compacts them in place, reading only the rows the ones before it kept
// (selection-vector refinement, as in MonetDB/X100).
//
// A filtered aggregate needs only a morsel of the selection at a time, so
// for such a conjunction it builds none (Counted): a first pass counts the
// qualifying rows of each block, and a second fills any run of them into a
// buffer the caller owns, skipping at most a block to reach the run's
// first row. One conjunct stores nothing in the first pass; several refine
// each block's candidates in a pooled block-sized scratch.

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

// Fusable reports whether a column/literal pairing compares on the fused
// path — the single source of truth planners must consult before building
// a Conjunct.
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

// Conjunct is one compare of a fused filter's AND: Col Op Lit, a pairing
// Fusable accepts. A conjunction is a slice of them over columns of one
// length, applied in its order.
type Conjunct struct {
	Op       CmpOp
	Col, Lit *storage.Column
}

// SelectCompareConst is the fused filter fast path for one conjunct.
// handled=false falls back to the generic predicate path (unsupported type
// pairing, per Fusable).
func SelectCompareConst(p Pol, op CmpOp, col, lit *storage.Column) (sel []int32, handled bool) {
	if !Fusable(col, lit) {
		return nil, false
	}
	return SelectConjunction(p, []Conjunct{{op, col, lit}}), true
}

// SelectConjunction builds the selection of the rows every conjunct keeps
// in one pass, with no intermediate bool column. NULL rows never qualify;
// a NULL constant selects nothing.
func SelectConjunction(p Pol, conj []Conjunct) []int32 {
	cj := compile(conj)
	if cj == nil {
		return []int32{}
	}
	return fillCompact(p, conj[0].Col.Len(), func(dst []int32, lo, hi int) int {
		k := 0
		for ; lo < hi; lo += blockRows {
			k += cj.block(dst[k:], lo, min(lo+blockRows, hi))
		}
		return k
	})
}

// blockRows is the most rows a conjunction filters at once.
const blockRows = 1024

// conjunction is a compiled []Conjunct.
type conjunction []cmpKernel

// cmpKernel is a fused compare's typed loops.
type cmpKernel interface {
	scan(dst []int32, lo, hi, skip int) int
	fill(dst []int32, lo, hi int) int
	refine(cand []int32) int
}

type cmpConst[T cmp.Ordered] struct {
	op    CmpOp
	vals  []T
	c     T
	nulls []bool
}

func (k *cmpConst[T]) scan(dst []int32, lo, hi, skip int) int {
	return scanCmp(k.op, dst, k.vals, k.c, k.nulls, lo, hi, skip)
}
func (k *cmpConst[T]) fill(dst []int32, lo, hi int) int {
	return fillCmp(k.op, dst, k.vals, k.c, k.nulls, lo, hi)
}
func (k *cmpConst[T]) refine(cand []int32) int {
	return refineCmp(k.op, cand, k.vals, k.c, k.nulls)
}

// compile picks each conjunct's typed loops, or answers nil if a literal
// is NULL: then no row qualifies.
func compile(conj []Conjunct) conjunction {
	cj := make(conjunction, len(conj))
	for i, x := range conj {
		switch {
		case x.Lit.IsNull(0):
			return nil
		case x.Col.Typ == storage.TInt && x.Lit.Typ == storage.TInt:
			cj[i] = &cmpConst[int64]{x.Op, x.Col.Ints, x.Lit.Ints[0], x.Col.Nulls}
		case x.Col.Typ == storage.TFloat:
			cj[i] = &cmpConst[float64]{x.Op, x.Col.Flts, litFloat(x.Lit), x.Col.Nulls}
		default:
			cj[i] = &cmpConst[string]{x.Op, x.Col.Strs, x.Lit.Strs[0], x.Col.Nulls}
		}
	}
	return cj
}

// block writes into dst, which has room for hi-lo rows, the rows of
// [lo,hi) every conjunct keeps: the first fills its candidates, each
// further one refines them. It answers how many.
func (cj conjunction) block(dst []int32, lo, hi int) int {
	k := cj[0].fill(dst, lo, hi)
	for _, x := range cj[1:] {
		k = x.refine(dst[:k])
	}
	return k
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

// Counted is the selection SelectConjunction would build, counted per
// block of the column but not stored, so that any run of it can be filled
// where it is needed: a filtered aggregate's first pass; Fill its second.
type Counted struct {
	rows, block int
	starts      []int       // starts[b] rows qualify before block b
	cj          conjunction // nil: a literal is NULL
}

// CountCompareConst counts what SelectConjunction selects in each block of
// at most 1024 rows, in morsels of p's size: the last conjunct counts
// what the others keep, scanning the block while they keep every row. A
// stopped run leaves counts out: re-check p.Stop. Callers check Fusable.
func CountCompareConst(p Pol, conj []Conjunct) *Counted {
	c := &Counted{rows: conj[0].Col.Len(), block: min(p.Morsel(), blockRows), cj: compile(conj)}
	c.starts = make([]int, (c.rows+c.block-1)/c.block+1)
	if c.cj == nil {
		return c
	}
	p.MorselSize = max(p.Morsel()/c.block, 1)
	head, last := c.cj[:len(c.cj)-1], c.cj[len(c.cj)-1] // the last only counts
	p.Run(len(c.starts)-1, func(lo, hi int) {
		var buf *[blockRows]int32
		if len(head) > 0 {
			buf = blockPool.Get().(*[blockRows]int32)
			defer blockPool.Put(buf)
		}
		for b := lo; b < hi; b++ {
			blo, bhi := b*c.block, min((b+1)*c.block, c.rows)
			k := bhi - blo
			if len(head) > 0 {
				k = head.block(buf[:], blo, bhi)
			}
			if k == bhi-blo {
				c.starts[b+1] = last.scan(nil, blo, bhi, 0)
			} else {
				c.starts[b+1] = last.refine(buf[:k])
			}
		}
	})
	for b := 1; b < len(c.starts); b++ {
		c.starts[b] += c.starts[b-1]
	}
	return c
}

// blockPool holds the scratch a conjunction of several compares refines
// a block's candidates in, one per worker at a time.
var blockPool = sync.Pool{New: func() any { return new([blockRows]int32) }}

// Len is how many rows qualify.
func (c *Counted) Len() int { return c.starts[len(c.starts)-1] }

// Fill writes into dst the indexes of the qualifying rows first,
// first+1, ... in row order until dst is full; there must be that many.
// It skips at most a block to reach row first. One compare runs fillCmp
// over each block whose rows fit whole; several refine each block in
// scratch and copy its survivors.
func (c *Counted) Fill(dst []int32, first int) {
	b := sort.Search(len(c.starts)-1, func(b int) bool { return c.starts[b+1] > first })
	if len(c.cj) > 1 {
		buf := blockPool.Get().(*[blockRows]int32)
		for k, skip := 0, first-c.starts[b]; k < len(dst); b, skip = b+1, 0 {
			n := c.cj.block(buf[:], b*c.block, min((b+1)*c.block, c.rows))
			k += copy(dst[k:], buf[skip:n])
		}
		blockPool.Put(buf)
		return
	}
	x := c.cj[0]
	k := x.scan(dst, b*c.block, min((b+1)*c.block, c.rows), first-c.starts[b])
	for b++; k < len(dst); b++ {
		lo, hi := b*c.block, min((b+1)*c.block, c.rows)
		if c.starts[b+1]-c.starts[b] < len(dst)-k {
			k += x.fill(dst[k:], lo, hi) // fillCmp may write one past its rows
		} else {
			k += x.scan(dst[k:], lo, hi, 0)
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

// refineCmp compacts cand in place to the rows that also pass, branchless
// as fillCmp, and answers how many: one loop per shape, as scanCmp counts.
func refineCmp[T cmp.Ordered](op CmpOp, cand []int32, vals []T, c T, nulls []bool) int {
	lt, gt, neg := cmpShape(op)
	k := 0
	switch {
	case nulls != nil:
		for _, i := range cand {
			cand[k] = i
			k += (b2i(vals[i] < c)&lt | b2i(c < vals[i])&gt ^ neg) &^ b2i(nulls[i])
		}
	case gt == 0:
		for _, i := range cand {
			cand[k] = i
			k += b2i(vals[i] < c) ^ neg
		}
	case lt == 0:
		for _, i := range cand {
			cand[k] = i
			k += b2i(c < vals[i]) ^ neg
		}
	default:
		for _, i := range cand {
			cand[k] = i
			k += b2i(vals[i] < c) | b2i(c < vals[i]) ^ neg
		}
	}
	return k
}

package vec

import (
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

func intCol(vals []int64, nulls []bool) *storage.Column {
	return &storage.Column{Typ: storage.TInt, Ints: vals, Nulls: nulls}
}

func fltCol(vals []float64) *storage.Column {
	return &storage.Column{Typ: storage.TFloat, Flts: vals}
}

// TestRunPartitionsExactly verifies every row is visited exactly once
// regardless of worker count and morsel size.
func TestRunPartitionsExactly(t *testing.T) {
	for _, tc := range []struct{ n, workers, morsel int }{
		{0, 4, 8}, {1, 4, 8}, {7, 1, 2}, {100, 4, 8}, {1000, 16, 7}, {1000, 2, 1000}, {999, 3, 100},
	} {
		p := Pol{Workers: tc.workers, MorselSize: tc.morsel}
		seen := make([]int32, tc.n)
		p.Run(tc.n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, v := range seen {
			if v != 1 {
				t.Fatalf("n=%d w=%d m=%d: row %d visited %d times", tc.n, tc.workers, tc.morsel, i, v)
			}
		}
	}
}

// TestRunErrPropagates: a failing morsel's error surfaces; when every
// failing morsel raises the same error (the engine's case), the result
// is deterministic.
func TestRunErrPropagates(t *testing.T) {
	p := Pol{Workers: 8, MorselSize: 10}
	err := p.RunErr(100, func(lo, hi int) error {
		if lo >= 30 {
			return core.Errorf(core.KindRuntime, "division by zero")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
	if err := p.RunErr(100, func(lo, hi int) error { return nil }); err != nil {
		t.Fatalf("clean run: %v", err)
	}
}

func TestSelectTruthyAndCompareConst(t *testing.T) {
	vals := []int64{5, -1, 0, 9, 3, 0, 7}
	nulls := []bool{false, false, false, true, false, false, false}
	col := intCol(vals, nulls)
	for _, p := range []Pol{Serial, {Workers: 4, MorselSize: 2}} {
		sel, handled := SelectCompareConst(p, CmpGt, col, intCol([]int64{2}, nil))
		if !handled {
			t.Fatal("int/int compare should be fused")
		}
		// rows with v>2 and not null: 0 (5), 4 (3), 6 (7); row 3 is NULL
		if len(sel) != 3 || sel[0] != 0 || sel[1] != 4 || sel[2] != 6 {
			t.Fatalf("sel = %v", sel)
		}
		truthy := SelectTruthy(p, col)
		// non-zero non-null: 0, 1, 4, 6
		if len(truthy) != 4 || truthy[0] != 0 || truthy[1] != 1 || truthy[2] != 4 || truthy[3] != 6 {
			t.Fatalf("truthy = %v", truthy)
		}
	}
	// NULL literal selects nothing
	sel, handled := SelectCompareConst(Serial, CmpEq, col, AllNull(storage.TInt, 1))
	if !handled || len(sel) != 0 {
		t.Fatalf("null literal: handled=%v sel=%v", handled, sel)
	}
	// unsupported pairing falls back
	if _, handled := SelectCompareConst(Serial, CmpEq, col, fltCol([]float64{1})); handled {
		t.Fatal("int col vs float lit should fall back to the generic path")
	}
}

func TestIntersect(t *testing.T) {
	got := Intersect([]int32{1, 3, 5, 7}, []int32{0, 3, 4, 7, 9})
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("intersect = %v", got)
	}
	if got := Intersect(nil, []int32{1}); len(got) != 0 {
		t.Fatalf("empty intersect = %v", got)
	}
}

func TestSumCountWithSelection(t *testing.T) {
	col := intCol([]int64{10, 20, 30, 40, 0}, []bool{false, false, false, false, true})
	sel := []int32{1, 2, 4} // 20, 30, NULL
	isum, fsum, cnt, ok := SumCount(Serial, col, sel)
	if !ok || isum != 50 || fsum != 50 || cnt != 2 {
		t.Fatalf("got isum=%d fsum=%v cnt=%d ok=%v", isum, fsum, cnt, ok)
	}
	if _, _, _, ok := SumCount(Serial, &storage.Column{Typ: storage.TStr, Strs: []string{"x"}}, nil); ok {
		t.Fatal("string column must not be summable")
	}
	// parallel morsels merge deterministically
	big := make([]int64, 10_000)
	var want int64
	for i := range big {
		big[i] = int64(i)
		want += int64(i)
	}
	isum, _, cnt, _ = SumCount(Pol{Workers: 4, MorselSize: 128}, intCol(big, nil), nil)
	if isum != want || cnt != int64(len(big)) {
		t.Fatalf("parallel sum = %d (count %d), want %d", isum, cnt, want)
	}
}

func TestMinMaxIdxSemantics(t *testing.T) {
	col := fltCol([]float64{3, 1, 4, 1, 5})
	if best, _ := MinMaxIdx(Serial, col, nil, true); best != 1 {
		t.Fatalf("min idx = %d (equal values must keep the earliest)", best)
	}
	if best, _ := MinMaxIdx(Serial, col, nil, false); best != 4 {
		t.Fatalf("max idx = %d", best)
	}
	// all-NULL view
	nn := intCol([]int64{1, 2}, []bool{true, true})
	if best, _ := MinMaxIdx(Serial, nn, nil, true); best != -1 {
		t.Fatalf("all-null min idx = %d", best)
	}
	// blob: one non-NULL row aggregates, two error (reference semantics)
	blob := &storage.Column{Typ: storage.TBlob, Blobs: [][]byte{{1}, nil}, Nulls: []bool{false, true}}
	if best, err := MinMaxIdx(Serial, blob, nil, true); err != nil || best != 0 {
		t.Fatalf("single blob: best=%d err=%v", best, err)
	}
	blob2 := &storage.Column{Typ: storage.TBlob, Blobs: [][]byte{{1}, {2}}}
	if _, err := MinMaxIdx(Serial, blob2, nil, true); err == nil {
		t.Fatal("two blobs must refuse to compare")
	}
}

func TestGroupsFirstAppearanceOrder(t *testing.T) {
	keys := &storage.Column{Typ: storage.TStr, Strs: []string{"b", "a", "b", "c", "a", "b"}}
	groups := Groups(Serial, []*storage.Column{keys}, 6)
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	// first appearance: b, a, c
	if keys.Strs[groups[0][0]] != "b" || keys.Strs[groups[1][0]] != "a" || keys.Strs[groups[2][0]] != "c" {
		t.Fatalf("group order broken: %v", groups)
	}
	if len(groups[0]) != 3 || len(groups[1]) != 2 || len(groups[2]) != 1 {
		t.Fatalf("group sizes: %v", groups)
	}
}

func TestGroupsNullAndFloatSemantics(t *testing.T) {
	// NULLs form one group; NaNs form one group; +0 and -0 stay separate
	// (matching the historical formatted keys "0" vs "-0")
	f := &storage.Column{
		Typ:   storage.TFloat,
		Flts:  []float64{math.NaN(), 0, math.Copysign(0, -1), math.NaN(), 0, 1},
		Nulls: []bool{false, false, false, false, true, false},
	}
	groups := Groups(Serial, []*storage.Column{f}, 6)
	// groups: NaN{0,3}, +0{1}, -0{2}, NULL{4}, 1{5}
	if len(groups) != 5 {
		t.Fatalf("groups = %v", groups)
	}
	if len(groups[0]) != 2 {
		t.Fatalf("NaNs must group together: %v", groups)
	}
}

func TestDistinctReps(t *testing.T) {
	c1 := intCol([]int64{1, 2, 1, 3, 2}, nil)
	c2 := &storage.Column{Typ: storage.TBool, Bools: []bool{true, true, true, false, true}}
	reps := DistinctReps(Serial, []*storage.Column{c1, c2}, 5)
	if len(reps) != 3 || reps[0] != 0 || reps[1] != 1 || reps[2] != 3 {
		t.Fatalf("reps = %v", reps)
	}
}

// TestArithDivZeroNullRows: division by zero on a NULL row must not
// error, on a live row it must.
func TestArithDivZeroNullRows(t *testing.T) {
	l := intCol([]int64{10, 20}, nil)
	rNull := intCol([]int64{2, 0}, []bool{false, true})
	out, err := Arith(Serial, OpDiv, l, rNull, 2)
	if err != nil {
		t.Fatalf("null divisor row must not error: %v", err)
	}
	if out.Ints[0] != 5 || !out.IsNull(1) {
		t.Fatalf("out = %v nulls=%v", out.Ints, out.Nulls)
	}
	rZero := intCol([]int64{2, 0}, nil)
	if _, err := Arith(Serial, OpDiv, l, rZero, 2); err == nil {
		t.Fatal("live zero divisor must error")
	}
}

// TestPoolReuse exercises the scratch pool across concurrent borrowers.
func TestPoolReuse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				f := GetFloats(1000)
				for i := range f {
					f[i] = float64(i)
				}
				PutFloats(f)
				b := GetBools(1000)
				b[0] = true
				PutBools(b)
			}
		}()
	}
	wg.Wait()
}

func TestAlign(t *testing.T) {
	if _, err := Align(intCol(make([]int64, 3), nil), intCol(make([]int64, 4), nil)); err == nil {
		t.Fatal("length mismatch must error")
	}
	n, err := Align(intCol(make([]int64, 1), nil), intCol(make([]int64, 9), nil))
	if err != nil || n != 9 {
		t.Fatalf("broadcast align: n=%d err=%v", n, err)
	}
}

// nonZeroUnderNull returns the first row of c whose NULL bit is set but
// whose value slot is not the type's zero value, or -1. Raw vectors cross
// the zero-copy GO UDF boundary, where a NULL reads as the zero value.
func nonZeroUnderNull(c *storage.Column) int {
	for i, null := range c.Nulls {
		if !null {
			continue
		}
		switch {
		case c.Ints != nil && c.Ints[i] != 0,
			c.Flts != nil && c.Flts[i] != 0,
			c.Strs != nil && c.Strs[i] != "",
			c.Bools != nil && c.Bools[i],
			c.Blobs != nil && len(c.Blobs[i]) != 0:
			return i
		}
	}
	return -1
}

// TestKernelOutputsZeroUnderNulls: every kernel that returns a column with
// a NULL bitmap leaves the zero value under each set bit, even where its
// inputs carry other values under theirs. The branch-free kernels compute
// through NULL rows, so each one that sets Nulls must zero them again.
func TestKernelOutputsZeroUnderNulls(t *testing.T) {
	nulls := []bool{false, true, false, true, false, false, true, false}
	n := len(nulls)
	ints := &storage.Column{Typ: storage.TInt, Ints: make([]int64, n), Nulls: nulls}
	flts := &storage.Column{Typ: storage.TFloat, Flts: make([]float64, n), Nulls: nulls}
	strs := &storage.Column{Typ: storage.TStr, Strs: make([]string, n), Nulls: nulls}
	bools := &storage.Column{Typ: storage.TBool, Bools: make([]bool, n), Nulls: nulls}
	for i := range nulls {
		ints.Ints[i] = int64(i + 2)
		flts.Flts[i] = float64(i) + 2.5
		strs.Strs[i] = "s"
		bools.Bools[i] = i%2 == 0
	}
	kernels := map[string]func(Pol) (*storage.Column, error){
		"AllNull int":   func(Pol) (*storage.Column, error) { return AllNull(storage.TInt, n), nil },
		"AllNull float": func(Pol) (*storage.Column, error) { return AllNull(storage.TFloat, n), nil },
		"AllNull str":   func(Pol) (*storage.Column, error) { return AllNull(storage.TStr, n), nil },
		"AllNull bool":  func(Pol) (*storage.Column, error) { return AllNull(storage.TBool, n), nil },
		"Not":           func(p Pol) (*storage.Column, error) { return Not(p, bools), nil },
		"Neg int":       func(p Pol) (*storage.Column, error) { return Neg(p, ints) },
		"Neg float":     func(p Pol) (*storage.Column, error) { return Neg(p, flts) },
		"AND":           func(p Pol) (*storage.Column, error) { return Logic(p, true, bools, ints, n), nil },
		"OR":            func(p Pol) (*storage.Column, error) { return Logic(p, false, bools, ints, n), nil },
	}
	for _, op := range []ArithOp{OpAdd, OpSub, OpMul, OpDiv, OpMod} {
		kernels["int "+op.String()+" int"] = func(p Pol) (*storage.Column, error) { return Arith(p, op, ints, ints, n) }
		kernels["int "+op.String()+" float"] = func(p Pol) (*storage.Column, error) { return Arith(p, op, ints, flts, n) }
		kernels["float "+op.String()+" float"] = func(p Pol) (*storage.Column, error) { return Arith(p, op, flts, flts, n) }
	}
	for op, name := range map[CmpOp]string{CmpEq: "=", CmpNe: "<>", CmpLt: "<", CmpLe: "<=", CmpGt: ">", CmpGe: ">="} {
		kernels["int "+name+" int"] = func(p Pol) (*storage.Column, error) { return Compare(p, op, ints, ints, n) }
		kernels["int "+name+" float"] = func(p Pol) (*storage.Column, error) { return Compare(p, op, ints, flts, n) }
		kernels["str "+name+" str"] = func(p Pol) (*storage.Column, error) { return Compare(p, op, strs, strs, n) }
	}
	for name, kernel := range kernels {
		for _, p := range []Pol{Serial, {Workers: 4, MorselSize: 2}} {
			out, err := kernel(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if row := nonZeroUnderNull(out); row >= 0 {
				t.Errorf("%s (%d workers): row %d is NULL but its value slot is not zero", name, p.Workers, row)
			}
		}
	}
}

// TestCountedFillsWhatSelectCompareConstSelects: for every operator, over
// ints, floats with NaN and -0.0, strings, with and without NULLs, and at
// several morsel sizes, Counted counts the rows SelectCompareConst selects
// and fills every run of them, from any first row and of any length.
func TestCountedFillsWhatSelectCompareConstSelects(t *testing.T) {
	const n = 3000
	ints, flts, strs := storage.NewColumn("", storage.TInt), storage.NewColumn("", storage.TFloat), storage.NewColumn("", storage.TStr)
	nullable := storage.NewColumn("", storage.TInt)
	for i := 0; i < n; i++ {
		v := int64(i*7919%13) - 6
		ints.AppendInt(v)
		strs.AppendStr(string(rune('a' + v + 6)))
		switch i % 11 {
		case 3:
			flts.AppendFloat(math.NaN())
		case 5:
			flts.AppendFloat(math.Copysign(0, -1))
		default:
			flts.AppendFloat(float64(v) / 2)
		}
		if i%5 == 2 {
			nullable.AppendNull()
		} else {
			nullable.AppendInt(v)
		}
	}
	lit := func(v any) *storage.Column {
		c, err := storage.BindValue(v)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cases := []struct {
		col, lit *storage.Column
	}{
		{ints, lit(int64(1))}, {flts, lit(0.0)}, {flts, lit(int64(-2))}, {strs, lit("f")},
		{nullable, lit(int64(-3))}, {ints, lit(int64(100))}, {ints, lit(nil)},
	}
	for _, p := range []Pol{Serial, {Workers: 3, MorselSize: 16}, {Workers: 2, MorselSize: 2048}} {
		for ci, tc := range cases {
			for op := CmpEq; op <= CmpGe; op++ {
				want, handled := SelectCompareConst(p, op, tc.col, tc.lit)
				if !handled {
					t.Fatalf("case %d: not fusable", ci)
				}
				c := CountCompareConst(p, op, tc.col, tc.lit)
				if c.Len() != len(want) {
					t.Fatalf("case %d op %d morsel %d: counted %d, selected %d", ci, op, p.Morsel(), c.Len(), len(want))
				}
				for _, size := range []int{1, 7, 64, 1500} {
					for first := 0; first < len(want); first += size/2 + 1 {
						dst := make([]int32, min(size, len(want)-first))
						c.Fill(dst, first)
						if w := want[first : first+len(dst)]; !slices.Equal(dst, w) {
							t.Fatalf("case %d op %d morsel %d: Fill(%d rows from %d) = %v, want %v",
								ci, op, p.Morsel(), len(dst), first, dst, w)
						}
					}
				}
			}
		}
	}
}

package vec

import (
	"math"
	"slices"
	"testing"

	"repro/internal/storage"
)

// kernelInput is one set of operand columns of a given length: ints with
// every seventh row NULL, floats, bools, a selection of every other row
// and a destination mask.
type kernelInput struct {
	ints, flts, bools, notBools *storage.Column
	sel                         []int32
	dst                         []bool
}

func newKernelInput(n int) kernelInput {
	in := kernelInput{
		ints:     intCol(make([]int64, n), make([]bool, n)),
		flts:     fltCol(make([]float64, n)),
		bools:    &storage.Column{Typ: storage.TBool, Bools: make([]bool, n)},
		notBools: &storage.Column{Typ: storage.TBool, Bools: make([]bool, n)},
		dst:      make([]bool, n),
	}
	for i := 0; i < n; i++ {
		in.ints.Ints[i] = int64(i % 100)
		in.ints.Nulls[i] = i%7 == 0
		in.flts.Flts[i] = float64(i%50) + 0.5
		in.bools.Bools[i] = i%3 == 0
		in.notBools.Bools[i] = i%3 != 0
		if i%2 == 0 {
			in.sel = append(in.sel, int32(i))
		}
	}
	return in
}

// sink keeps the kernels' results reachable so no call can be elided.
var sink any

// steadyAllocs is f's allocation count with the scratch pool warm: the
// minimum over single measured runs, because a pool emptied by a GC cycle
// (or, in the race build, by sync.Pool dropping a share of what it is
// handed) only ever adds to the count.
func steadyAllocs(f func()) float64 {
	best := math.Inf(1)
	for i := 0; i < 20; i++ {
		best = min(best, testing.AllocsPerRun(1, f))
	}
	return best
}

// TestKernelAllocationsDoNotScaleWithRows runs each exported kernel under
// the sequential policy at two row counts a factor 64 apart and demands
// the same number of allocations: result vectors and per-call scratch are
// fine, anything allocated per row (a string conversion, boxing, a fmt
// call in a loop) is not.
func TestKernelAllocationsDoNotScaleWithRows(t *testing.T) {
	small, large := newKernelInput(1<<10), newKernelInput(1<<16)
	lit := intCol([]int64{30}, nil)
	kernels := []struct {
		name string
		run  func(in kernelInput)
	}{
		{"Arith int+int", func(in kernelInput) { sink, _ = Arith(Serial, OpAdd, in.ints, in.ints, len(in.dst)) }},
		{"Arith int*float", func(in kernelInput) { sink, _ = Arith(Serial, OpMul, in.ints, in.flts, len(in.dst)) }},
		{"Compare int<int", func(in kernelInput) { sink, _ = Compare(Serial, CmpLt, in.ints, in.ints, len(in.dst)) }},
		{"Compare int>=float", func(in kernelInput) { sink, _ = Compare(Serial, CmpGe, in.ints, in.flts, len(in.dst)) }},
		{"Logic and", func(in kernelInput) { sink = Logic(Serial, true, in.bools, in.notBools, len(in.dst)) }},
		{"TruthyInto", func(in kernelInput) { TruthyInto(Serial, in.dst, in.ints, len(in.dst)) }},
		{"SelectCompareConst", func(in kernelInput) { sink, _ = SelectCompareConst(Serial, CmpGt, in.ints, lit) }},
		{"SelectTruthy", func(in kernelInput) { sink = SelectTruthy(Serial, in.bools) }},
		{"SumCount int over sel", func(in kernelInput) { sink, _, _, _ = SumCount(Serial, in.ints, in.sel) }},
		{"SumCount float over sel", func(in kernelInput) { _, sink, _, _ = SumCount(Serial, in.flts, in.sel) }},
		{"MinMaxIdx over sel", func(in kernelInput) { sink, _ = MinMaxIdx(Serial, in.ints, in.sel, true) }},
	}
	for _, k := range kernels {
		atSmall := steadyAllocs(func() { k.run(small) })
		atLarge := steadyAllocs(func() { k.run(large) })
		if atSmall != atLarge {
			t.Errorf("%s: %v allocations at %d rows, %v at %d rows", k.name, atSmall, len(small.dst), atLarge, len(large.dst))
		}
	}
}

// TestResultsDoNotAliasPooledScratch: the int→float promotion of Arith and
// the right-hand mask of Logic live in pooled buffers that go back to the
// pool before the kernel returns. The results must own their memory, so
// later borrowers of those buffers cannot change them.
func TestResultsDoNotAliasPooledScratch(t *testing.T) {
	const n = 4096
	in := newKernelInput(n)
	sum, err := Arith(Serial, OpAdd, in.ints, in.flts, n)
	if err != nil {
		t.Fatal(err)
	}
	and := Logic(Serial, true, in.bools, in.bools, n)
	wantSum, wantAnd := slices.Clone(sum.Flts), slices.Clone(and.Bools)
	wantInts := slices.Clone(in.ints.Ints)

	// Re-borrow and overwrite the scratch buffers, through the kernels and
	// directly; several rounds, because the race build's sync.Pool drops a
	// share of the buffers it is handed.
	for round := 0; round < 8; round++ {
		if _, err := Arith(Serial, OpSub, in.flts, in.ints, n); err != nil {
			t.Fatal(err)
		}
		Logic(Serial, false, in.notBools, in.notBools, n)
		f, b := GetFloats(n), GetBools(n)
		for i := range f {
			f[i], b[i] = math.NaN(), i%2 == 0
		}
		PutFloats(f)
		PutBools(b)
	}
	if !slices.Equal(sum.Flts, wantSum) {
		t.Error("an Arith result changed when its scratch buffers were reused")
	}
	if !slices.Equal(and.Bools, wantAnd) {
		t.Error("a Logic result changed when its scratch buffers were reused")
	}
	if !slices.Equal(in.ints.Ints, wantInts) {
		t.Error("an input column changed when the scratch buffers were reused")
	}
}

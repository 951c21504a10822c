package main

import (
	"encoding/binary"
	"math"

	"repro/internal/storage"
)

// rng is splitmix64: small, fast and identical on every platform, so one
// seed always yields the same data and the same operation stream.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream ...uint64) *rng {
	r := &rng{s: seed}
	for _, x := range stream {
		r.s = r.next() ^ (x+1)*0x9e3779b97f4a7c15
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }
func (r *rng) float() float64     { return float64(r.next()>>11) / (1 << 53) }

// Table sizes of the fixtures (ISSUE 12's workload table).
const (
	paramsRows   = 64
	numbersRows  = 50_000
	numbersSRows = 20_000
	pullRows     = 100_000
	bigRows      = 1_000_000
	bigDomain    = 1000
	dimRows      = 10_000
	sampleRows   = 500
	batchRows    = 100
	wireSpan     = 6 // prepared/adhoc range is [lo, lo+wireSpan)
	debugSteps   = 20
)

// dataset is everything the seed decides about the stored data, plus the
// reference answers the oracles compare against — all computed here in Go,
// never by the system under test.
type dataset struct {
	paramsI []int64
	paramsF []float64
	numbers []int64 // py_agg, extract_full, cycle_*
	small   []int64 // py_map
	pull    []int64
	big     []int64
	dimV    []float64

	wireCount  [10]int64 // rows matching i in [lo, lo+wireSpan)
	wireSumI   [10]int64
	smallSq    int64                // sum of squares of small
	pullSum    int64                // sum of pull
	bigSqBelow [bigDomain + 1]int64 // sum of i*i over big where i < bound
	dimPrefix  []float64            // dimPrefix[k] = sum of dimV[:k]
}

func genDataset(seed uint64) *dataset {
	d := &dataset{}
	r := newRNG(seed, 'd')
	fill := func(n int, mod int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = r.intn(mod)
		}
		return out
	}
	d.paramsI = fill(paramsRows, 16)
	d.paramsF = make([]float64, paramsRows)
	for i := range d.paramsF {
		d.paramsF[i] = r.float()
	}
	d.numbers = fill(numbersRows, 10_000)
	d.small = fill(numbersSRows, 10_000)
	d.pull = fill(pullRows, 10_000)
	d.big = fill(bigRows, bigDomain)
	d.dimV = make([]float64, dimRows)
	d.dimPrefix = make([]float64, dimRows+1)
	for i := range d.dimV {
		d.dimV[i] = math.Floor(r.float()*10000) / 100
		d.dimPrefix[i+1] = d.dimPrefix[i] + d.dimV[i]
	}
	for lo := range d.wireCount {
		for _, v := range d.paramsI {
			if v >= int64(lo) && v < int64(lo)+wireSpan {
				d.wireCount[lo]++
				d.wireSumI[lo] += v
			}
		}
	}
	for _, v := range d.small {
		d.smallSq += v * v
	}
	for _, v := range d.pull {
		d.pullSum += v
	}
	var hist [bigDomain]int64
	for _, v := range d.big {
		hist[v]++
	}
	for v := int64(0); v < bigDomain; v++ {
		d.bigSqBelow[v+1] = d.bigSqBelow[v] + hist[v]*v*v
	}
	return d
}

// meanDeviation is the reference for the paper's Listing 4 UDF, summing in
// the same order the UDF body does. fixed selects the corrected body
// (abs() around the distance); the buggy one sums signed distances.
func meanDeviation(col []int64, fixed bool) float64 {
	var sum int64
	for _, v := range col {
		sum += v
	}
	mean := float64(sum) / float64(len(col))
	distance := 0.0
	for _, v := range col {
		d := float64(v) - mean
		if fixed {
			d = math.Abs(d)
		}
		distance += d
	}
	return distance / float64(len(col))
}

func intColumn(name string, vals []int64) *storage.Column {
	return &storage.Column{Name: name, Typ: storage.TInt, Ints: vals}
}

func floatColumn(name string, vals []float64) *storage.Column {
	return &storage.Column{Name: name, Typ: storage.TFloat, Flts: vals}
}

// op is one operation of a stream. A, B and X are the class's binds:
//
//	prepared/adhoc  A=lo, X=the f<>? bind (distinct per op, so ad-hoc text never repeats)
//	native_scan     A=bound of "i < ?"
//	cycle_*         B=1 runs the corrected body, 0 the buggy one
//	debug_session   A=loop index the conditional breakpoint waits for
//	insert(_batch)  A=k, X=v (a batch derives its 100 rows from them)
//	read            A=lo, B=hi of the range on dim.k
type op struct {
	Class uint8
	A, B  int64
	X     float64
}

// Stream identifiers: the four phases plus the ingest reader's own stream.
const streamReader = numPhases

const wireBlock, ingestBlock = 1000, 1000

// devRound is one developer round: extract once, then several local
// edit-run cycles and debug sessions beside one traditional cycle and two
// bulk pulls, in seeded order.
var devRound = []uint8{
	clsExtract, clsCycleTraditional, clsPull, clsPull,
	clsCycleDevUDF, clsCycleDevUDF, clsCycleDevUDF, clsCycleDevUDF,
	clsDebug, clsDebug, clsDebug, clsDebug,
}

// genBlock returns block k of a stream: a pure function of (seed, stream,
// k), so a run that gets further in its seconds reads more of the same
// stream, never a different one.
func genBlock(seed uint64, stream int, k int) []op {
	r := newRNG(seed, 'o', uint64(stream), uint64(k))
	switch stream {
	case phWire:
		ops := make([]op, wireBlock)
		for j := range ops {
			o := op{A: r.intn(10), X: float64(k*wireBlock+j) + 1.5}
			switch p := r.intn(100); {
			case p < 70:
				o.Class = clsPrepared
			case p < 90:
				o.Class = clsAdhoc
			default:
				o.Class = clsPing
			}
			ops[j] = o
		}
		return ops
	case phUDF:
		ops := []op{{Class: clsPyAgg}, {Class: clsPyMap}, {Class: clsNativeScan, A: 200 + r.intn(600)}}
		shuffle(r, ops)
		return ops
	case phDev:
		ops := make([]op, len(devRound))
		for j, c := range devRound {
			ops[j] = op{Class: c, A: 50 + r.intn(350), B: r.intn(2)}
		}
		shuffle(r, ops)
		return ops
	case phIngest:
		ops := make([]op, ingestBlock)
		for j := range ops {
			ops[j] = op{Class: clsInsert, A: r.intn(1000), X: math.Floor(r.float()*1e6) / 100}
			if r.intn(100) == 0 {
				ops[j].Class = clsInsertBatch
			}
		}
		return ops
	case streamReader:
		ops := make([]op, ingestBlock)
		for j := range ops {
			lo := r.intn(dimRows - 1000)
			ops[j] = op{Class: clsRead, A: lo, B: lo + 1 + r.intn(1000)}
		}
		return ops
	}
	panic("unknown stream")
}

func shuffle(r *rng, ops []op) {
	for i := len(ops) - 1; i > 0; i-- {
		j := r.intn(int64(i + 1))
		ops[i], ops[j] = ops[j], ops[i]
	}
}

// appendOps serialises ops; stream_test.go compares these bytes.
func appendOps(buf []byte, ops []op) []byte {
	for _, o := range ops {
		buf = append(buf, o.Class)
		buf = binary.BigEndian.AppendUint64(buf, uint64(o.A))
		buf = binary.BigEndian.AppendUint64(buf, uint64(o.B))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(o.X))
	}
	return buf
}

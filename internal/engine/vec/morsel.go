package vec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Package-level execution counters: morsel scheduling is the engine's
// hottest control path, so it keeps raw atomics here and the metrics
// registry reads them at scrape time (engine.EnableObs). The inline path
// pays two uncontended atomic adds per kernel call; the parallel path
// also accounts each worker's busy time, the caller's included.
var (
	statMorsels      atomic.Int64
	statInlineRuns   atomic.Int64
	statParallelRuns atomic.Int64
	statBusyNanos    atomic.Int64
)

// Stats is a snapshot of the package execution counters.
type Stats struct {
	// Morsels is the total number of morsels executed.
	Morsels int64
	// InlineRuns counts kernel dispatches that ran on the query goroutine.
	InlineRuns int64
	// ParallelRuns counts kernel dispatches that fanned out to workers.
	ParallelRuns int64
	// WorkerBusyNanos accumulates the wall time the caller and its helpers
	// spent claiming morsels in parallel runs: its rate over cores.
	WorkerBusyNanos int64
}

// StatsSnapshot reads the execution counters without synchronization
// beyond the atomics themselves.
func StatsSnapshot() Stats {
	return Stats{
		Morsels:         statMorsels.Load(),
		InlineRuns:      statInlineRuns.Load(),
		ParallelRuns:    statParallelRuns.Load(),
		WorkerBusyNanos: statBusyNanos.Load(),
	}
}

// DefaultMorselSize is the number of rows one worker claims at a time.
// Morsels are small enough to load-balance skewed work and large enough
// that per-morsel scheduling overhead disappears against the kernel loop.
const DefaultMorselSize = 16 << 10

// Pol is the execution policy a kernel call runs under: how many workers
// may execute morsels concurrently (the caller and Workers−1 helpers) and
// how many rows each morsel holds. The zero value means "all cores,
// default morsel size"; Serial pins execution to the calling goroutine.
type Pol struct {
	// Workers caps concurrent morsel executors. <=0 selects GOMAXPROCS;
	// 1 disables parallelism.
	Workers int
	// MorselSize is the rows-per-morsel split. <=0 selects
	// DefaultMorselSize.
	MorselSize int
	// Stop, when non-nil, is polled at every morsel boundary; once its
	// Stopped returns true no further morsels start (in-flight morsels
	// finish). A stopped run leaves unclaimed morsel ranges untouched, so
	// callers that arm Stop must re-check their stop condition before
	// consuming results. The dormant cost is one nil-check per morsel. An
	// interface, not a func, so that a pointer to the caller's signal arms
	// it without allocating a method value.
	Stop interface{ Stopped() bool }
}

// Serial executes every kernel inline on the calling goroutine.
var Serial = Pol{Workers: 1}

func (p Pol) workers() int {
	if p.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Workers
}

// NumWorkers returns the effective worker count (GOMAXPROCS when
// Workers <= 0).
func (p Pol) NumWorkers() int { return p.workers() }

// Morsel returns the effective rows-per-morsel split.
func (p Pol) Morsel() int {
	if p.MorselSize <= 0 {
		return DefaultMorselSize
	}
	return p.MorselSize
}

// NumMorsels returns how many morsels n rows split into (at least 1 for
// n > 0).
func (p Pol) NumMorsels(n int) int {
	m := p.Morsel()
	return (n + m - 1) / m
}

// Run executes fn over [0,n) split into morsels. Workers claim morsels
// from a shared counter (morsel-driven scheduling); fn must only touch
// state local to its [lo,hi) range. Small inputs run inline.
func (p Pol) Run(n int, fn func(lo, hi int)) {
	p.RunIdx(n, func(_, lo, hi int) { fn(lo, hi) })
}

// RunIdx is Run with the morsel index passed through — the hook for
// two-phase kernels (count per morsel, prefix-sum, fill per morsel) and
// per-morsel partial aggregates that merge deterministically in morsel
// order. The calling goroutine is one of the w workers: it claims morsels
// beside w−1 helper goroutines and waits for them only once none is left.
// One worker or one morsel starts no helper.
func (p Pol) RunIdx(n int, fn func(m, lo, hi int)) {
	if n <= 0 {
		return
	}
	nm := p.NumMorsels(n)
	w := min(p.workers(), nm)
	statMorsels.Add(int64(nm))
	if w <= 1 {
		statInlineRuns.Add(1)
		var next atomic.Int64
		p.claim(&next, n, fn)
		return
	}
	statParallelRuns.Add(1)
	next := new(atomic.Int64) // the helpers share it; the serial one stays on the stack
	work := func() {
		t0 := time.Now()
		p.claim(next, n, fn)
		statBusyNanos.Add(int64(time.Since(t0)))
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for range w - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// claim runs fn over the morsels it takes from next until none is left
// or Stop trips; Stop is polled before every claim.
func (p Pol) claim(next *atomic.Int64, n int, fn func(m, lo, hi int)) {
	ms := p.Morsel()
	for p.Stop == nil || !p.Stop.Stopped() {
		m := int(next.Add(1) - 1)
		lo := m * ms
		if lo >= n {
			return
		}
		fn(m, lo, min(lo+ms, n))
	}
}

// RunErr is Run for fallible kernels. A morsel is skipped once a
// lower-numbered morsel has failed, so every morsel below the lowest
// failing one runs, and RunErr answers that lowest failing morsel's
// error whatever the schedule.
func (p Pol) RunErr(n int, fn func(lo, hi int) error) error {
	var low struct {
		sync.Mutex
		m   atomic.Int64 // lowest failed morsel; n while none has
		err error
	}
	low.m.Store(int64(n))
	p.RunIdx(n, func(m, lo, hi int) {
		if int64(m) > low.m.Load() {
			return
		}
		if err := fn(lo, hi); err != nil {
			low.Lock()
			if int64(m) < low.m.Load() {
				low.m.Store(int64(m))
				low.err = err
			}
			low.Unlock()
		}
	})
	return low.err
}

// ---- shared column-buffer pool ----
//
// Kernels borrow scratch vectors (float promotions, truthiness masks,
// per-morsel counters) from a process-wide pool instead of allocating per
// call. Only transient buffers go through the pool; result columns own
// their slices.

var (
	f64Pool  = sync.Pool{New: func() any { s := make([]float64, 0, DefaultMorselSize); return &s }}
	boolPool = sync.Pool{New: func() any { s := make([]bool, 0, DefaultMorselSize); return &s }}
)

// GetFloats borrows a float64 scratch buffer of length n.
func GetFloats(n int) []float64 {
	p := f64Pool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	return (*p)[:n]
}

// PutFloats returns a borrowed float64 buffer to the pool.
func PutFloats(s []float64) {
	f64Pool.Put(&s)
}

// GetBools borrows a bool scratch buffer of length n.
func GetBools(n int) []bool {
	p := boolPool.Get().(*[]bool)
	if cap(*p) < n {
		*p = make([]bool, n)
	}
	return (*p)[:n]
}

// PutBools returns a borrowed bool buffer to the pool.
func PutBools(s []bool) {
	boolPool.Put(&s)
}

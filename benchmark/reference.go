package main

import (
	"os"
	"time"
)

// The reference computation. This box is a 2-vCPU guest on a shared host:
// for seconds or minutes at a time the same code runs up to 1.7x slower
// (README.md, "Nominal speed", has the measurements), so medians of ten raw
// runs spread by 10–45 % and no bound the driver allows could tell a
// regression from the weather. The benchmark therefore measures the weather
// beside the work. Every couple of milliseconds, between two operations, it
// times a fixed piece of work that is none of the program's:
//
//   - summing a fixed 1 MiB array, and
//   - eight 16-byte writes and reads on a pipe of its own.
//
// Each half runs once untimed first, so that what the previous operation
// left in the caches does not count: the array and the kernel's pipe path
// are loaded when the clock starts.
//
// The two halves are the system's two ingredients, memory-bound computing
// and trips into the kernel. The reference allocates nothing, writes to no
// heap memory and calls no code of the repository, so a change to the
// program has no way to move it; the traced pass reports both halves as
// measured (process.reference_stream_us, process.reference_pipe_us).
//
// At the end of each 50 ms slice the samples taken in it are also recorded
// "at nominal speed": multiplied by the factor that would bring the slice's
// mean reference to its nominal time. End-to-end metrics are statistics of
// the nominal samples. The measured samples are kept, and every end-to-end
// metric is reported from them too.
const (
	nominalStreamNs = 58_000
	nominalPipeNs   = 10_500
	refEvery        = 2 * time.Millisecond
)

type reference struct {
	r, w    *os.File
	buf     [16]byte
	array   []int64
	sink    int64
	last    time.Time
	n       int     // references run since the last take
	stream  int64   // the halves' summed times since then, nanoseconds
	pipe    int64   //
	streams []int64 // every reference of the run
	pipes   []int64 //
	err     error   // the first failed pipe operation; ends the run
}

func newReference() (*reference, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	ref := &reference{r: r, w: w, array: make([]int64, 1<<17)}
	for i := range ref.array {
		ref.array[i] = int64(i)
	}
	return ref, nil
}

func (r *reference) close() {
	r.r.Close()
	r.w.Close()
}

// sum is kept out of line so that the timed loop is the same machine code
// wherever it is called from: one add per cycle.
//
//go:noinline
func (r *reference) sum() {
	var s int64
	for _, v := range r.array {
		s += v
	}
	r.sink += s
}

// pipeTrips writes and reads the pipe n times; the first error sticks.
func (r *reference) pipeTrips(n int) {
	for i := 0; i < n && r.err == nil; i++ {
		if _, r.err = r.w.Write(r.buf[:]); r.err == nil {
			_, r.err = r.r.Read(r.buf[:])
		}
	}
}

// maybe runs the reference if refEvery has passed since it last ran. Callers
// invoke it between operations, never inside a timed call.
func (r *reference) maybe() {
	if r == nil || time.Since(r.last) < refEvery {
		return
	}
	r.sum()
	r.pipeTrips(2)
	t0 := time.Now()
	r.sum()
	t1 := time.Now()
	r.pipeTrips(8)
	r.last = time.Now()
	r.n++
	r.stream += int64(t1.Sub(t0))
	r.pipe += int64(r.last.Sub(t1))
	r.streams = append(r.streams, int64(t1.Sub(t0)))
	r.pipes = append(r.pipes, int64(r.last.Sub(t1)))
}

// take returns the factor that brings timings made since the previous take
// to nominal speed: 1 over the mean reference, each half counted in units
// of its nominal time. (The mean, not the median: on a slow stretch the
// reference's fastest runs stay where they are and its slower ones become
// more frequent, as the operations' do.)
func (r *reference) take() float64 {
	if r.n == 0 {
		r.last = time.Time{}
		r.maybe()
	}
	f := 2 * float64(r.n) / (float64(r.stream)/nominalStreamNs + float64(r.pipe)/nominalPipeNs)
	r.n, r.stream, r.pipe = 0, 0, 0
	return f
}

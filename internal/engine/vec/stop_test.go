package vec

import (
	"sync/atomic"
	"testing"
)

// TestStopHaltsInlineRun: a tripped Stop leaves remaining morsels
// unclaimed on the single-worker path.
func TestStopHaltsInlineRun(t *testing.T) {
	var ran atomic.Int64
	var stop atomic.Bool
	p := Pol{Workers: 1, MorselSize: 10, Stop: stopFunc(stop.Load)}
	p.RunIdx(100, func(m, lo, hi int) {
		ran.Add(1)
		if m == 2 {
			stop.Store(true)
		}
	})
	if got := ran.Load(); got != 3 {
		t.Fatalf("ran %d morsels after stop at morsel 2, want 3", got)
	}
}

// TestStopHaltsParallelRun: every worker observes Stop at its next claim
// and exits without touching the remaining ranges. Only morsels that begin
// after the trip are counted: a worker descheduled between its fifth-morsel
// count and the store would otherwise let the others run on unobserved.
func TestStopHaltsParallelRun(t *testing.T) {
	var ran, late atomic.Int64
	var stop atomic.Bool
	p := Pol{Workers: 4, MorselSize: 1, Stop: stopFunc(stop.Load)}
	p.RunIdx(10_000, func(m, lo, hi int) {
		if stop.Load() {
			late.Add(1)
		}
		if ran.Add(1) == 5 {
			stop.Store(true)
		}
	})
	// Each of the other three workers may have polled Stop just before the
	// trip and so start one more morsel after it.
	if got := late.Load(); got > 3 {
		t.Fatalf("%d morsels began after stop, want at most 3", got)
	}
}

// TestStopPreTripped: a Stop already tripped runs nothing at all.
func TestStopPreTripped(t *testing.T) {
	var ran atomic.Int64
	p := Pol{Workers: 4, MorselSize: 8, Stop: stopFunc(func() bool { return true })}
	p.RunIdx(1000, func(m, lo, hi int) { ran.Add(1) })
	if got := ran.Load(); got != 0 {
		t.Fatalf("ran %d morsels with pre-tripped stop, want 0", got)
	}
}

// stopFunc adapts a func to Pol.Stop.
type stopFunc func() bool

func (s stopFunc) Stopped() bool { return s() }

package debug

import (
	"sync"
	"testing"

	"repro/internal/script"
)

// stressMod is a long-running loop with a call so stepping exercises both
// depth changes and plain lines.
const stressSrc = `def work(x):
    y = x * 2
    return y

total = 0
for i in range(0, 100000):
    total += work(i)
`

// TestStressConcurrentControl hammers SetBreakpoint / ClearBreakpoint /
// RequestPause / Kill from other goroutines while the controlling goroutine
// steps — run under -race, it proves the session's shared state (breakpoint
// map, terminal state, kill/pause flags) is properly synchronized and that
// no interleaving deadlocks.
func TestStressConcurrentControl(t *testing.T) {
	for round := 0; round < 8; round++ {
		mod, err := script.Parse("stress.py", stressSrc)
		if err != nil {
			t.Fatal(err)
		}
		s := newModuleRun(mod, Config{StopOnEntry: true}, nil)

		var wg sync.WaitGroup
		stop := make(chan struct{})
		// Breakpoint mutator: churns the map the trace hook reads.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				line := 2 + i%6
				s.SetBreakpoint(line, "")
				_ = s.Breakpoints()
				s.ClearBreakpoint(line)
			}
		}()
		// Pause requester.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.RequestPause()
				}
			}
		}()
		// Late killer: fires while stepping is in full swing.
		killed := make(chan Event, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-stop
			killed <- s.Kill()
		}()

		// The controlling goroutine steps through the debuggee.
		ev := s.Start()
		for i := 0; i < 200 && !ev.Terminal; i++ {
			switch i % 4 {
			case 0:
				ev = s.StepInto()
			case 1:
				ev = s.StepOver()
			case 2:
				ev = s.Continue()
			default:
				ev = s.StepOut()
			}
			if !ev.Terminal && i%10 == 0 {
				// Inspections must be safe while paused.
				_, _ = s.Locals()
				_, _ = s.Stack()
				_, _ = s.Eval("i")
			}
		}
		close(stop)
		kev := <-killed
		if !kev.Terminal {
			t.Fatalf("round %d: Kill returned a non-terminal event: %+v", round, kev)
		}
		// After the terminal event every control and inspection call must
		// return immediately with the terminal state or an error — never hang.
		if ev := s.Continue(); !ev.Terminal {
			t.Fatalf("round %d: Continue after finish is not terminal", round)
		}
		if _, err := s.Locals(); err == nil {
			t.Fatalf("round %d: Locals after finish should fail", round)
		}
		wg.Wait()
	}
}

// TestKillWhilePausedRace kills from a second goroutine while the controller
// is blocked in a control call, repeatedly — the interleaving that loses
// events when terminal-state delivery is a plain channel close.
func TestKillWhilePausedRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		mod, err := script.Parse("loop.py", "total = 0\nfor i in range(0, 1000000):\n    total += i\n")
		if err != nil {
			t.Fatal(err)
		}
		s := newModuleRun(mod, Config{StopOnEntry: true}, nil)
		ev := s.Start()
		if ev.Terminal {
			t.Fatal("expected entry pause")
		}
		done := make(chan Event, 1)
		go func() { done <- s.Kill() }()
		// Race the kill against a resume.
		ev = s.Continue()
		kev := <-done
		if !kev.Terminal {
			t.Fatalf("round %d: kill event not terminal: %+v", round, kev)
		}
		if !ev.Terminal {
			// The continue lost the race and observed a pause; the next
			// control call must still terminate.
			ev = s.Continue()
			if !ev.Terminal {
				t.Fatalf("round %d: continue after kill not terminal: %+v", round, ev)
			}
		}
	}
}

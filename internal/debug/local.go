package debug

import (
	"sync"
	"sync/atomic"

	"repro/internal/script"
)

// Local drives a Session synchronously, for a debuggee that runs in this
// process: Start calls the session's Run on a goroutine of its own, and
// Start and each resume return the stop they lead to. It is a client of the
// session's asynchronous API like any other, so the inspection and
// breakpoint methods are the session's own. A Local has one controlling
// goroutine; Kill and RequestPause are safe from any goroutine at any time.
type Local struct {
	*Session
	in    *script.Interp
	lines []string
	run   func() error

	launched atomic.Bool
	events   chan Event    // the session's stops, handed to the waiting control call
	kill     chan struct{} // Run's kill channel, closed by stop
	stop     func()
	done     chan struct{} // closed once Run has returned
}

// NewLocal prepares (but does not start) a synchronous run of s over run,
// the debuggee, which executes on in; lines is its source.
func NewLocal(s *Session, in *script.Interp, lines []string, run func() error) *Local {
	kill := make(chan struct{})
	return &Local{Session: s, in: in, lines: lines, run: run,
		events: make(chan Event), kill: kill, stop: sync.OnceFunc(func() { close(kill) }),
		done: make(chan struct{})}
}

// Start launches the debuggee and returns the first stop: the entry pause
// when StopOnEntry, otherwise the first breakpoint hit or the end.
func (l *Local) Start() Event {
	if !l.launched.CompareAndSwap(false, true) {
		return refused(errStarted)
	}
	// The goroutine ends when the debuggee completes or Kill aborts it.
	go func() {
		defer close(l.done)
		l.Run(l.in, l.lines, l.run, l.stopped, l.kill)
	}()
	return l.wait()
}

// stopped is the session's onStop: it hands the stop to the control call
// waiting for it.
func (l *Local) stopped(ev Event) {
	select {
	case l.events <- ev:
	case <-l.kill:
	}
}

// wait blocks until the debuggee stops or ends.
func (l *Local) wait() Event {
	select {
	case ev := <-l.events:
		return ev
	case <-l.done:
		ev, _ := l.Ended()
		return ev
	}
}

// resume waits for the stop a posted resume leads to; one the session
// refused, because the debuggee is not paused, is a terminal error event.
func (l *Local) resume(err error) Event {
	if err != nil {
		return refused(err)
	}
	return l.wait()
}

// Continue resumes until the next breakpoint, pause request or completion.
func (l *Local) Continue() Event { return l.resume(l.Session.Continue()) }

// StepOver resumes until the next line at the same or a shallower depth.
func (l *Local) StepOver() Event { return l.resume(l.Session.StepOver()) }

// StepInto resumes until the next line anywhere (entering calls).
func (l *Local) StepInto() Event { return l.resume(l.Session.StepInto()) }

// StepOut resumes until control returns to the caller.
func (l *Local) StepOut() Event { return l.resume(l.Session.StepOut()) }

// Kill aborts the debuggee, paused or running, and returns the terminal
// event. It is safe from any goroutine.
func (l *Local) Kill() Event {
	if _, ended := l.Ended(); ended || !l.launched.Load() {
		return refused(errNotPaused)
	}
	l.stop()
	<-l.done
	ev, _ := l.Ended()
	return ev
}

// Source returns the debuggee's source lines, before Start too.
func (l *Local) Source() []string { return l.lines }

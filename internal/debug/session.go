// Package debug implements the interactive debugger devUDF attaches to a
// UDF — the capability the paper argues UDF developers are normally denied
// because "the RDBMS must be in control of the code flow while the UDF is
// being executed" (§1). It provides breakpoints (optionally conditional),
// step over/into/out, pause, call-stack and variable inspection, and watch
// expressions, built on PyLite's trace hook exactly as pydevd builds on
// CPython's sys.settrace.
//
// A Session has one form. It is made with New, takes its breakpoints before,
// during and after a run, and debugs one run: Session.Run executes the
// debuggee on the calling goroutine, under the session's trace hook, and
// returns the terminal event. Whoever owns the debuggee's goroutine calls
// Run. The session's one controller is its pause loop: it runs in the trace
// hook, takes commands only while paused and ends on a resume or when the
// kill channel closes. The control and inspection methods post to it from
// any other goroutine and never wait for a stop.
//
// Inside the database server the connection goroutine running the debug
// launch calls Run from the engine's UDF invocation (the other one reads
// the connection meanwhile), and stops go to the client over the
// connection's MsgDebug frames (internal/wire); this package speaks no
// protocol of its own. For a local run, Local owns the goroutine: it calls
// Run on one of its own and hands each stop back to the control call that
// led to it.
package debug

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/script"
)

// StopReason explains why execution paused (or ended).
type StopReason string

// Stop reasons.
const (
	ReasonEntry      StopReason = "entry"
	ReasonBreakpoint StopReason = "breakpoint"
	ReasonStep       StopReason = "step"
	ReasonPause      StopReason = "pause"
	ReasonDone       StopReason = "done"
	ReasonException  StopReason = "exception"
	ReasonKilled     StopReason = "killed"
)

// Event is delivered every time the debuggee stops.
type Event struct {
	Reason   StopReason
	Line     int
	FuncName string
	Depth    int
	// Err is set for ReasonException (the script error) and ReasonDone
	// with a failing script.
	Err error
	// Terminal reports that execution has finished and no further control
	// commands are accepted.
	Terminal bool
}

// FrameInfo is one stack entry, innermost first.
type FrameInfo struct {
	FuncName string
	Line     int
	Depth    int
}

// Breakpoint is a line breakpoint with an optional PyLite condition
// evaluated in the paused frame ("i > 3").
type Breakpoint struct {
	Line      int
	Condition string
	HitCount  int

	// cond is Condition parsed once, when the breakpoint is set; nil for an
	// unconditional breakpoint or a condition that does not parse (which,
	// like one that fails to evaluate, never stops).
	cond *script.Watch
}

// Config configures a Session.
type Config struct {
	// StopOnEntry pauses before the first statement (PyCharm's default
	// when stepping from the gutter).
	StopOnEntry bool
}

type cmdKind int

const (
	cmdResume cmdKind = iota
	cmdKill
	cmdEval
	cmdLocals
	cmdGlobals
	cmdStack
)

type command struct {
	kind cmdKind
	mode stepMode       // cmdResume
	expr string         // cmdEval
	resp chan cmdResult // inspections only
}

type cmdResult struct {
	value  script.Value
	vars   map[string]script.Value
	frames []FrameInfo
	err    error
}

type stepMode int

const (
	stepNone stepMode = iota
	stepOver
	stepInto
	stepOut
	stepEntry // StopOnEntry's stop at the first line
)

// The states of a Session's one run.
const (
	idle int32 = iota
	running
	ended
)

// Session debugs one run under the trace hook. Every method is safe from
// any goroutine; Run is called once, by the owner of the debuggee's
// goroutine.
type Session struct {
	mu          sync.Mutex
	breakpoints map[int]*Breakpoint
	lines       []string

	// The pause loop's inputs: commands, received only while paused, and
	// the kill channel, whose close ends the loop and aborts the debuggee.
	cmds chan command
	kill <-chan struct{}
	// onStop reports a stop, on the debuggee's goroutine, before the pause
	// loop takes commands.
	onStop func(Event)

	// paused is set before onStop and cleared by the sender of a resume or
	// by the kill that ends the pause.
	paused    atomic.Bool
	pauseFlag atomic.Bool
	state     atomic.Int32
	// terminal is the event Run returned; valid to read once state is ended.
	terminal Event

	// Debuggee-goroutine-only state.
	mode      stepMode
	modeDepth int
	killed    bool
}

// New makes a session that has not run yet.
func New(cfg Config) *Session {
	s := &Session{breakpoints: map[int]*Breakpoint{}, cmds: make(chan command)}
	if cfg.StopOnEntry {
		s.mode = stepEntry
	}
	return s
}

// Run executes run, the debuggee, on the calling goroutine with the
// session's trace hook installed on in, the interpreter run executes on,
// and returns the terminal event once run returns; the hook is removed
// then. lines is the debuggee's source (Source). onStop is called with
// each stop, on this goroutine, before the pause loop takes commands.
// Closing kill aborts the debuggee, paused or running; one killed before
// its first line never stops. A session runs once: a second Run is
// refused.
func (s *Session) Run(in *script.Interp, lines []string, run func() error,
	onStop func(Event), kill <-chan struct{}) Event {
	s.mu.Lock()
	if s.state.Load() != idle {
		s.mu.Unlock()
		return refused(errStarted)
	}
	s.lines = lines // before Started reports true
	s.state.Store(running)
	s.mu.Unlock()
	s.onStop, s.kill = onStop, kill
	in.Trace = s.trace
	err := run()
	in.Trace = nil
	reason := ReasonDone
	if s.killed {
		reason, err = ReasonKilled, nil
	}
	s.terminal = Event{Reason: reason, Terminal: true, Err: err}
	s.state.Store(ended)
	return s.terminal
}

// Started reports whether Run has begun.
func (s *Session) Started() bool { return s.state.Load() != idle }

// Ended returns the terminal event once Run has returned it.
func (s *Session) Ended() (Event, bool) {
	if s.state.Load() != ended {
		return Event{}, false
	}
	return s.terminal, true
}

// SetBreakpoint sets (or replaces) a breakpoint.
func (s *Session) SetBreakpoint(line int, condition string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setLocked(line, condition)
}

func (s *Session) setLocked(line int, condition string) {
	bp := &Breakpoint{Line: line, Condition: condition}
	if condition != "" {
		bp.cond, _ = script.ParseWatch(condition)
	}
	s.breakpoints[line] = bp
}

// SetBreakpoints replaces the whole set by bps' lines and conditions.
func (s *Session) SetBreakpoints(bps []Breakpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.breakpoints)
	for _, bp := range bps {
		s.setLocked(bp.Line, bp.Condition)
	}
}

// ClearBreakpoint removes a breakpoint.
func (s *Session) ClearBreakpoint(line int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.breakpoints, line)
}

// Breakpoints lists breakpoints sorted by line.
func (s *Session) Breakpoints() []Breakpoint {
	s.mu.Lock()
	out := make([]Breakpoint, 0, len(s.breakpoints))
	for _, b := range s.breakpoints {
		out = append(out, *b)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Line < out[j].Line })
	return out
}

// Source returns the debugged code's source lines (1-based indexing by
// line number: Source()[l-1]); nil before Run.
func (s *Session) Source() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lines
}

// Continue resumes until the next breakpoint, pause request or completion.
func (s *Session) Continue() error { return s.post(command{mode: stepNone}) }

// StepOver resumes until the next line at the same or a shallower depth.
func (s *Session) StepOver() error { return s.post(command{mode: stepOver}) }

// StepInto resumes until the next line anywhere (entering calls).
func (s *Session) StepInto() error { return s.post(command{mode: stepInto}) }

// StepOut resumes until control returns to the caller.
func (s *Session) StepOut() error { return s.post(command{mode: stepOut}) }

// Kill aborts a paused debuggee; a running one refuses (RequestPause it
// first). Closing Run's kill channel aborts it either way.
func (s *Session) Kill() error { return s.post(command{kind: cmdKill}) }

// RequestPause asks a *running* debuggee to stop at its next line. The
// pause materializes as a stop like any other.
func (s *Session) RequestPause() { s.pauseFlag.Store(true) }

var (
	errNotPaused = core.Errorf(core.KindConstraint, "debuggee is not paused")
	errStarted   = core.Errorf(core.KindConstraint, "session already started")
)

// refused is the terminal event of a call that cannot act on the session.
func refused(err error) Event { return Event{Reason: ReasonDone, Terminal: true, Err: err} }

// post hands cmd to the pause loop. It never waits for the debuggee to
// pause: one that is running, or finished, refuses. A resume ends the pause
// here, before the loop takes it, so the next command already finds the
// debuggee running and nobody waits for the loop to say so.
func (s *Session) post(cmd command) error {
	paused := s.paused.Load()
	if cmd.kind == cmdResume || cmd.kind == cmdKill {
		paused = s.paused.CompareAndSwap(true, false)
	}
	if !paused {
		return errNotPaused
	}
	select {
	case s.cmds <- cmd:
		return nil
	case <-s.kill:
		return errNotPaused
	}
}

// send posts cmd and returns the pause loop's answer.
func (s *Session) send(cmd command) cmdResult {
	cmd.resp = make(chan cmdResult, 1)
	if err := s.post(cmd); err != nil {
		return cmdResult{err: err}
	}
	return <-cmd.resp
}

// Eval evaluates a watch expression in the paused frame. A failure is the
// script error's *core.Error, without the traceback its *script.RuntimeError
// carries (which names only the paused frame): a local and a remote
// debugger report it alike.
func (s *Session) Eval(expr string) (script.Value, error) {
	res := s.send(command{kind: cmdEval, expr: expr})
	if re, ok := res.err.(*script.RuntimeError); ok {
		return nil, re.Unwrap()
	}
	return res.value, res.err
}

// Locals returns the paused frame's local variables.
func (s *Session) Locals() (map[string]script.Value, error) {
	res := s.send(command{kind: cmdLocals})
	return res.vars, res.err
}

// GlobalVars returns the module-level variables of the paused frame.
func (s *Session) GlobalVars() (map[string]script.Value, error) {
	res := s.send(command{kind: cmdGlobals})
	return res.vars, res.err
}

// Stack returns the call stack, innermost frame first.
func (s *Session) Stack() ([]FrameInfo, error) {
	res := s.send(command{kind: cmdStack})
	return res.frames, res.err
}

// errKilled aborts the interpreter from inside the trace hook.
var errKilled = core.Errorf(core.KindRuntime, "killed by debugger")

// trace is the interpreter hook: it decides whether to pause at this event
// and, when paused, runs the pause loop.
func (s *Session) trace(in *script.Interp, ev script.TraceEvent) error {
	select {
	case <-s.kill:
		s.killed = true
	default:
	}
	if s.killed {
		return errKilled
	}
	if ev.Kind != script.TraceLine {
		return nil
	}
	reason, stop := s.shouldStop(in, ev)
	if !stop {
		return nil
	}
	s.paused.Store(true)
	s.onStop(Event{
		Reason:   reason,
		Line:     ev.Line,
		FuncName: ev.Frame.FuncName,
		Depth:    ev.Frame.Depth,
	})
	return s.pauseLoop(in, ev)
}

// pauseLoop answers inspection commands in the paused frame until a resume
// or a kill command arrives or the kill channel closes.
func (s *Session) pauseLoop(in *script.Interp, ev script.TraceEvent) error {
	for {
		var cmd command
		select {
		case cmd = <-s.cmds:
		case <-s.kill:
			s.paused.Store(false)
			s.killed = true
			return errKilled
		}
		var res cmdResult
		switch cmd.kind {
		case cmdResume, cmdKill:
			s.mode, s.modeDepth = cmd.mode, ev.Frame.Depth
			if cmd.kind == cmdKill {
				s.killed = true
				return errKilled
			}
			return nil
		case cmdEval:
			res.value, res.err = in.EvalInFrame(cmd.expr, ev.Frame)
		case cmdLocals:
			res.vars = ev.Frame.Locals()
		case cmdGlobals:
			res.vars = ev.Frame.Globals().Snapshot()
		case cmdStack:
			for f := ev.Frame; f != nil; f = f.Caller {
				res.frames = append(res.frames, FrameInfo{FuncName: f.FuncName, Line: f.Line, Depth: f.Depth})
			}
		}
		cmd.resp <- res
	}
}

// shouldStop applies pause requests, step modes and breakpoints, in that
// order of precedence.
func (s *Session) shouldStop(in *script.Interp, ev script.TraceEvent) (StopReason, bool) {
	if s.pauseFlag.Swap(false) {
		s.mode = stepNone
		return ReasonPause, true
	}
	switch s.mode {
	case stepEntry:
		s.mode = stepNone
		return ReasonEntry, true
	case stepInto:
		s.mode = stepNone
		return ReasonStep, true
	case stepOver:
		if ev.Frame.Depth <= s.modeDepth {
			s.mode = stepNone
			return ReasonStep, true
		}
	case stepOut:
		if ev.Frame.Depth < s.modeDepth {
			s.mode = stepNone
			return ReasonStep, true
		}
	}
	s.mu.Lock()
	bp, ok := s.breakpoints[ev.Line]
	s.mu.Unlock()
	if !ok {
		return "", false
	}
	// A Breakpoint's condition never changes (SetBreakpoint replaces the
	// whole entry), and only this goroutine evaluates it.
	if bp.Condition != "" {
		if bp.cond == nil {
			return "", false
		}
		if v, err := in.EvalWatch(bp.cond, ev.Frame); err != nil || !script.Truthy(v) {
			return "", false
		}
	}
	s.mu.Lock()
	if cur, still := s.breakpoints[ev.Line]; still {
		cur.HitCount++
	}
	s.mu.Unlock()
	return ReasonBreakpoint, true
}

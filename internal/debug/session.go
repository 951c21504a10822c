// Package debug implements the interactive debugger devUDF attaches to a
// locally-running UDF — the capability the paper argues UDF developers are
// normally denied because "the RDBMS must be in control of the code flow
// while the UDF is being executed" (§1). It provides breakpoints
// (optionally conditional), step over/into/out, pause, call-stack and
// variable inspection, and watch expressions, built on PyLite's trace hook
// exactly as pydevd builds on CPython's sys.settrace.
//
// A Session can debug either a whole module it owns (NewSession — the local
// devUDF workflow) or an arbitrary run function under an externally-owned
// interpreter (AttachSession — the hook the wire server uses to debug a UDF
// invocation executing inside the database engine). Remote debugging is
// that second form driven over the database connection's MsgDebug frames
// (internal/wire); this package speaks no protocol of its own.
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
	// Setup runs before execution to configure the interpreter (install
	// FS, module providers, stdout). Module sessions only.
	Setup func(*script.Interp)
	// Globals, when non-nil, pre-populates module scope (the devUDF local
	// runner injects _conn and input parameters). Module sessions only.
	Globals map[string]script.Value
}

type cmdKind int

const (
	cmdContinue cmdKind = iota
	cmdStepOver
	cmdStepInto
	cmdStepOut
	cmdKill
	cmdEval
	cmdLocals
	cmdGlobals
	cmdStack
)

type command struct {
	kind cmdKind
	expr string
	resp chan cmdResult
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
)

// Session debugs one execution under the trace hook. Control methods
// (Continue, Step*, …) are synchronous: they resume the debuggee and return
// the next stop event. A Session supports a single controlling goroutine;
// SetBreakpoint, ClearBreakpoint, RequestPause and Kill are additionally
// safe to call from any goroutine at any time.
type Session struct {
	in    *script.Interp
	lines []string
	run   func() error

	bpMu        sync.Mutex
	breakpoints map[int]*Breakpoint

	cmds      chan command
	events    chan Event
	done      chan struct{} // closed once the terminal state is recorded
	pauseFlag atomic.Bool
	killed    atomic.Bool
	started   atomic.Bool

	// terminal is valid to read after done is closed.
	terminal Event

	// Debuggee-goroutine-only step state.
	mode      stepMode
	modeDepth int

	result      *script.Env
	lastErr     error
	cfgGlobals  map[string]script.Value
	stopOnEntry bool
	sawEntry    bool
}

// NewSession prepares (but does not start) a debug session over mod: the
// session owns a fresh interpreter and runs the module's body.
func NewSession(mod *script.Module, cfg Config) *Session {
	s := newSession(cfg)
	s.lines = mod.Lines
	s.in = script.NewInterp()
	if cfg.Setup != nil {
		cfg.Setup(s.in)
	}
	s.in.Trace = s.trace
	s.cfgGlobals = cfg.Globals
	s.run = func() error {
		globals := s.in.NewGlobals()
		for k, v := range s.cfgGlobals {
			globals.Set(k, v)
		}
		err := s.in.RunInEnv(mod, globals)
		s.result = globals
		return err
	}
	return s
}

// AttachSession prepares a debug session over an arbitrary run function
// executing under an externally-owned interpreter — the wire server uses it
// to debug one UDF invocation inside the engine. The session installs its
// trace hook on in (replacing any existing hook); lines is the source shown
// by Source(). The run function executes on the session's goroutine once
// Start is called.
func AttachSession(in *script.Interp, lines []string, run func() error, cfg Config) *Session {
	s := newSession(cfg)
	s.in = in
	s.lines = lines
	s.run = run
	in.Trace = s.trace
	return s
}

func newSession(cfg Config) *Session {
	s := &Session{
		breakpoints: map[int]*Breakpoint{},
		cmds:        make(chan command),
		events:      make(chan Event),
		done:        make(chan struct{}),
	}
	if cfg.StopOnEntry {
		s.mode = stepInto // pause at the very first line
		s.stopOnEntry = true
	}
	return s
}

// Interp exposes the session's interpreter so embedders can construct
// native objects (the devUDF _conn shim) bound to it before Start.
func (s *Session) Interp() *script.Interp { return s.in }

// SetGlobal injects a module-scope binding before Start (devUDF injects
// _conn this way). It panics if called after Start.
func (s *Session) SetGlobal(name string, v script.Value) {
	if s.started.Load() {
		panic("debug: SetGlobal after Start")
	}
	if s.cfgGlobals == nil {
		s.cfgGlobals = map[string]script.Value{}
	}
	s.cfgGlobals[name] = v
}

// SetBreakpoint sets (or replaces) a breakpoint. Safe from any goroutine,
// including while the debuggee is running.
func (s *Session) SetBreakpoint(line int, condition string) {
	bp := &Breakpoint{Line: line, Condition: condition}
	if condition != "" {
		bp.cond, _ = script.ParseWatch(condition)
	}
	s.bpMu.Lock()
	defer s.bpMu.Unlock()
	s.breakpoints[line] = bp
}

// ClearBreakpoint removes a breakpoint. Safe from any goroutine.
func (s *Session) ClearBreakpoint(line int) {
	s.bpMu.Lock()
	defer s.bpMu.Unlock()
	delete(s.breakpoints, line)
}

// Breakpoints lists breakpoints sorted by line. Safe from any goroutine.
func (s *Session) Breakpoints() []Breakpoint {
	s.bpMu.Lock()
	out := make([]Breakpoint, 0, len(s.breakpoints))
	for _, b := range s.breakpoints {
		out = append(out, *b)
	}
	s.bpMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Line < out[j].Line })
	return out
}

// Source returns the debugged code's source lines (1-based indexing by
// line number: Source()[l-1]).
func (s *Session) Source() []string { return s.lines }

// Start launches the debuggee and returns the first stop event: the entry
// pause when StopOnEntry, otherwise the first breakpoint hit / completion.
func (s *Session) Start() Event {
	if !s.started.CompareAndSwap(false, true) {
		return Event{Reason: ReasonDone, Terminal: true,
			Err: core.Errorf(core.KindConstraint, "session already started")}
	}
	// The goroutine ends when the debuggee script completes or Kill aborts it.
	go func() {
		err := s.run()
		s.lastErr = err
		reason := ReasonDone
		if s.killed.Load() {
			reason = ReasonKilled
			err = nil
		}
		s.terminal = Event{Reason: reason, Terminal: true, Err: err}
		close(s.done)
	}()
	return s.waitEvent()
}

// Continue resumes until the next breakpoint, pause request or completion.
func (s *Session) Continue() Event { return s.control(command{kind: cmdContinue}) }

// StepOver resumes until the next line at the same or a shallower depth.
func (s *Session) StepOver() Event { return s.control(command{kind: cmdStepOver}) }

// StepInto resumes until the next line anywhere (entering calls).
func (s *Session) StepInto() Event { return s.control(command{kind: cmdStepInto}) }

// StepOut resumes until control returns to the caller.
func (s *Session) StepOut() Event { return s.control(command{kind: cmdStepOut}) }

// Kill aborts the debuggee and returns the terminal event. Safe from any
// goroutine, concurrently with an in-flight control call.
func (s *Session) Kill() Event {
	if !s.started.Load() || s.Finished() {
		return notPausedEvent()
	}
	s.killed.Store(true)
	for {
		select {
		case s.cmds <- command{kind: cmdKill}:
			// Delivered: the debuggee aborts at this trace event; wait for
			// the terminal state.
			<-s.done
			return s.terminal
		case ev := <-s.events:
			// A stop event raced our kill; the next trace event observes the
			// killed flag, but the debuggee is paused waiting for a command,
			// so keep offering cmdKill.
			_ = ev
		case <-s.done:
			return s.terminal
		}
	}
}

// RequestPause asks a *running* debuggee to stop at its next line. It is
// asynchronous and safe from any goroutine; the pause materializes as a
// ReasonPause event from the in-flight (or next) control call.
func (s *Session) RequestPause() { s.pauseFlag.Store(true) }

// notPausedEvent is the error event for control calls outside a pause:
// before Start or after the terminal event.
func notPausedEvent() Event {
	return Event{Reason: ReasonDone, Terminal: true,
		Err: core.Errorf(core.KindConstraint, "debuggee is not paused")}
}

func (s *Session) control(cmd command) Event {
	if !s.started.Load() || s.Finished() {
		return notPausedEvent()
	}
	select {
	case s.cmds <- cmd:
	case <-s.done:
		return s.terminal
	}
	return s.waitEvent()
}

// waitEvent blocks until the debuggee pauses or terminates.
func (s *Session) waitEvent() Event {
	select {
	case ev := <-s.events:
		return ev
	case <-s.done:
		return s.terminal
	}
}

// Finished reports whether the debuggee has reached its terminal state.
func (s *Session) Finished() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Eval evaluates a watch expression in the paused frame.
func (s *Session) Eval(expr string) (script.Value, error) {
	res := s.inspect(command{kind: cmdEval, expr: expr})
	return res.value, res.err
}

// Locals returns the paused frame's local variables.
func (s *Session) Locals() (map[string]script.Value, error) {
	res := s.inspect(command{kind: cmdLocals})
	return res.vars, res.err
}

// GlobalVars returns the module-level variables.
func (s *Session) GlobalVars() (map[string]script.Value, error) {
	res := s.inspect(command{kind: cmdGlobals})
	return res.vars, res.err
}

// Stack returns the call stack, innermost frame first.
func (s *Session) Stack() ([]FrameInfo, error) {
	res := s.inspect(command{kind: cmdStack})
	return res.frames, res.err
}

func (s *Session) inspect(cmd command) cmdResult {
	if !s.started.Load() || s.Finished() {
		return cmdResult{err: core.Errorf(core.KindConstraint, "debuggee is not paused")}
	}
	cmd.resp = make(chan cmdResult, 1)
	select {
	case s.cmds <- cmd:
	case <-s.done:
		return cmdResult{err: core.Errorf(core.KindConstraint, "debuggee is not paused")}
	}
	select {
	case res := <-cmd.resp:
		return res
	case <-s.done:
		return cmdResult{err: core.Errorf(core.KindConstraint, "debuggee is not paused")}
	}
}

// Result returns the module globals (module sessions; nil for attached
// sessions) and error after the terminal event.
func (s *Session) Result() (*script.Env, error) {
	if !s.Finished() {
		return nil, core.Errorf(core.KindConstraint, "debuggee has not finished")
	}
	return s.result, s.lastErr
}

// errKilled aborts the interpreter from inside the trace hook.
var errKilled = core.Errorf(core.KindRuntime, "killed by debugger")

// trace is the interpreter hook: it decides whether to pause at this event
// and, when paused, processes inspection/control commands until resumed.
func (s *Session) trace(in *script.Interp, ev script.TraceEvent) error {
	if s.killed.Load() {
		return errKilled
	}
	if ev.Kind != script.TraceLine {
		return nil
	}
	if s.Finished() {
		// A stale hook on a reused interpreter (AttachSession embedders):
		// the controller is gone, so pausing would block forever.
		return nil
	}
	reason, stop := s.shouldStop(in, ev)
	if !stop {
		return nil
	}
	s.events <- Event{
		Reason:   reason,
		Line:     ev.Line,
		FuncName: ev.Frame.FuncName,
		Depth:    ev.Frame.Depth,
	}
	for cmd := range s.cmds {
		switch cmd.kind {
		case cmdContinue:
			s.mode = stepNone
			return nil
		case cmdStepOver:
			s.mode = stepOver
			s.modeDepth = ev.Frame.Depth
			return nil
		case cmdStepInto:
			s.mode = stepInto
			return nil
		case cmdStepOut:
			s.mode = stepOut
			s.modeDepth = ev.Frame.Depth
			return nil
		case cmdKill:
			s.killed.Store(true)
			return errKilled
		case cmdEval:
			v, err := in.EvalInFrame(cmd.expr, ev.Frame)
			cmd.resp <- cmdResult{value: v, err: err}
		case cmdLocals:
			cmd.resp <- cmdResult{vars: ev.Frame.Locals()}
		case cmdGlobals:
			g := in.Globals
			if g == nil {
				cmd.resp <- cmdResult{vars: map[string]script.Value{}}
			} else {
				cmd.resp <- cmdResult{vars: g.Snapshot()}
			}
		case cmdStack:
			var frames []FrameInfo
			for f := ev.Frame; f != nil; f = f.Caller {
				frames = append(frames, FrameInfo{FuncName: f.FuncName, Line: f.Line, Depth: f.Depth})
			}
			cmd.resp <- cmdResult{frames: frames}
		}
	}
	return nil
}

// shouldStop applies pause requests, step modes and breakpoints, in that
// order of precedence.
func (s *Session) shouldStop(in *script.Interp, ev script.TraceEvent) (StopReason, bool) {
	if s.pauseFlag.Swap(false) {
		s.mode = stepNone
		return ReasonPause, true
	}
	switch s.mode {
	case stepInto:
		s.mode = stepNone
		if s.stopOnEntry && !s.sawEntry {
			s.sawEntry = true
			return ReasonEntry, true
		}
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
	s.bpMu.Lock()
	bp, ok := s.breakpoints[ev.Line]
	s.bpMu.Unlock()
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
	s.bpMu.Lock()
	if cur, still := s.breakpoints[ev.Line]; still {
		cur.HitCount++
	}
	s.bpMu.Unlock()
	return ReasonBreakpoint, true
}

// Package debug implements the interactive debugger devUDF attaches to a
// locally-running UDF — the capability the paper argues UDF developers are
// normally denied because "the RDBMS must be in control of the code flow
// while the UDF is being executed" (§1). It provides breakpoints
// (optionally conditional), step over/into/out, pause, call-stack and
// variable inspection, and watch expressions, built on PyLite's trace hook
// exactly as pydevd builds on CPython's sys.settrace.
//
// A Session's one controller is its pause loop: it runs in the trace hook,
// on the goroutine executing the debuggee, takes commands only while paused
// and ends on a resume or when the kill channel closes. A Session debugs
// either a whole module it owns (NewSession — the local devUDF workflow: the
// debuggee gets a goroutine and the API waits for each stop) or an arbitrary
// run function under an externally-owned interpreter (AttachSession — the
// wire server's UDF invocation inside the engine: the debuggee runs on the
// goroutine that calls Start, the connection's query worker, and stops go to
// a callback). Remote debugging is that second form driven over the
// database connection's MsgDebug frames (internal/wire); this package speaks
// no protocol of its own.
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
)

// Session debugs one execution under the trace hook. A Session supports a
// single controlling goroutine; SetBreakpoint, ClearBreakpoint and
// RequestPause are additionally safe to call from any goroutine at any time,
// and so is Kill on a local session.
type Session struct {
	in    *script.Interp
	lines []string
	run   func() error

	bpMu        sync.Mutex
	breakpoints map[int]*Breakpoint

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
	started   atomic.Bool
	done      chan struct{} // closed once the terminal state is recorded

	// terminal is valid to read after done is closed.
	terminal Event

	// Local sessions only: stops travel to the synchronous controller on
	// events, and Kill closes the kill channel through stop.
	events chan Event
	stop   func()

	// Debuggee-goroutine-only state.
	mode      stepMode
	modeDepth int
	killed    bool

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
	kill := make(chan struct{})
	s.kill, s.stop = kill, sync.OnceFunc(func() { close(kill) })
	s.events = make(chan Event)
	s.onStop = func(ev Event) {
		select {
		case s.events <- ev:
		case <-kill:
		}
	}
	return s
}

// AttachSession prepares a debug session over an arbitrary run function
// executing under an externally-owned interpreter — the wire server uses it
// to debug one UDF invocation inside the engine. The session installs its
// trace hook on in (replacing any existing hook); lines is the source shown
// by Source(). Start runs the debuggee on the calling goroutine, reports
// each stop to onStop there, and returns the terminal event. Control calls
// from another goroutine, Kill included, do not wait for the next stop: they
// return a zero Event, or one carrying Err when the debuggee was not paused,
// without blocking. Closing kill aborts the debuggee, paused or running; one
// killed before its first line never stops.
func AttachSession(in *script.Interp, lines []string, run func() error, cfg Config,
	onStop func(Event), kill <-chan struct{}) *Session {
	s := newSession(cfg)
	s.in = in
	s.lines = lines
	s.run = run
	s.onStop = onStop
	s.kill = kill
	in.Trace = s.trace
	return s
}

func newSession(cfg Config) *Session {
	s := &Session{
		breakpoints: map[int]*Breakpoint{},
		cmds:        make(chan command),
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

// Start launches the debuggee. A local session runs it on a goroutine of
// its own and returns the first stop event: the entry pause when
// StopOnEntry, otherwise the first breakpoint hit / completion. An attached
// session runs it on the calling goroutine and returns the terminal event.
func (s *Session) Start() Event {
	if !s.started.CompareAndSwap(false, true) {
		return Event{Reason: ReasonDone, Terminal: true,
			Err: core.Errorf(core.KindConstraint, "session already started")}
	}
	if s.events == nil {
		s.exec()
		return s.terminal
	}
	// The goroutine ends when the debuggee script completes or Kill aborts it.
	go s.exec()
	return s.waitEvent()
}

// exec runs the debuggee and records its terminal state.
func (s *Session) exec() {
	err := s.run()
	s.lastErr = err
	reason := ReasonDone
	if s.killed {
		reason, err = ReasonKilled, nil
	}
	s.terminal = Event{Reason: reason, Terminal: true, Err: err}
	close(s.done)
}

// Continue resumes until the next breakpoint, pause request or completion.
func (s *Session) Continue() Event { return s.control(command{mode: stepNone}) }

// StepOver resumes until the next line at the same or a shallower depth.
func (s *Session) StepOver() Event { return s.control(command{mode: stepOver}) }

// StepInto resumes until the next line anywhere (entering calls).
func (s *Session) StepInto() Event { return s.control(command{mode: stepInto}) }

// StepOut resumes until control returns to the caller.
func (s *Session) StepOut() Event { return s.control(command{mode: stepOut}) }

// Kill aborts the debuggee. On a local session it is safe from any
// goroutine, paused or running, and returns the terminal event; on an
// attached session it is a command like the resumes.
func (s *Session) Kill() Event {
	if s.stop == nil {
		return s.control(command{kind: cmdKill})
	}
	if !s.started.Load() || s.Finished() {
		return notPausedEvent()
	}
	s.stop()
	<-s.done
	return s.terminal
}

// RequestPause asks a *running* debuggee to stop at its next line. It is
// asynchronous and safe from any goroutine; the pause materializes as a
// ReasonPause event from the in-flight (or next) control call.
func (s *Session) RequestPause() { s.pauseFlag.Store(true) }

var errNotPaused = core.Errorf(core.KindConstraint, "debuggee is not paused")

// notPausedEvent is the error event for control calls outside a pause:
// before Start or after the terminal event.
func notPausedEvent() Event {
	return Event{Reason: ReasonDone, Terminal: true, Err: errNotPaused}
}

// control hands a resume (or an attached session's kill) to the pause loop
// and, on a local session, waits for the stop that follows.
func (s *Session) control(cmd command) Event {
	err := s.post(cmd)
	switch {
	case s.events == nil:
		return Event{Err: err}
	case err != nil:
		return notPausedEvent()
	}
	return s.waitEvent()
}

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
	res := s.send(command{kind: cmdEval, expr: expr})
	return res.value, res.err
}

// Locals returns the paused frame's local variables.
func (s *Session) Locals() (map[string]script.Value, error) {
	res := s.send(command{kind: cmdLocals})
	return res.vars, res.err
}

// GlobalVars returns the module-level variables.
func (s *Session) GlobalVars() (map[string]script.Value, error) {
	res := s.send(command{kind: cmdGlobals})
	return res.vars, res.err
}

// Stack returns the call stack, innermost frame first.
func (s *Session) Stack() ([]FrameInfo, error) {
	res := s.send(command{kind: cmdStack})
	return res.frames, res.err
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
			res.vars = map[string]script.Value{}
			if in.Globals != nil {
				res.vars = in.Globals.Snapshot()
			}
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

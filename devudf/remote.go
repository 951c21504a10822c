package devudf

import (
	"context"
	"sort"

	"repro/internal/core"
	"repro/internal/debug"
	"repro/internal/wire"
)

// RemoteDebugSession debugs a UDF executing *inside* the database server —
// the paper's missing capability ("the RDBMS must be in control of the code
// flow while the UDF is being executed", §1) delivered over the wire: the
// settings' debug query runs on the server, the engine attaches the trace
// hook when it invokes the target UDF, and breakpoint/step/inspect commands
// travel the v2 connection's DAP-style debug sub-protocol with stop events
// pushed back asynchronously.
//
// The API mirrors DebugSession, with errors surfaced (the debugger is now
// on the other side of a network). A RemoteDebugSession owns one pooled
// connection exclusively, for debug traffic only (queries go through the
// Client, on the pool's other connections); Close releases it. Control
// methods are synchronous and single-goroutine, like DebugSession's; Pause
// is safe from any goroutine.
type RemoteDebugSession struct {
	ctx  context.Context
	dc   *wire.DebugConn
	pool *wire.Pool
	wc   *wire.Client

	query       string
	udf         string
	stopOnEntry bool

	bps      map[int]string
	launched bool
	source   []string
	// lastStatus is the debug query's status message after termination.
	lastStatus string
}

// NewRemoteDebugSession prepares (but does not launch) a remote debug
// session: the settings' debug query will execute inside the server with
// the debugger attached to udfName's first invocation. The UDF does not
// need to be imported locally — it is debugged where it lives. ctx must be
// non-nil.
func (c *Client) NewRemoteDebugSession(ctx context.Context, udfName string, stopOnEntry bool) (*RemoteDebugSession, error) {
	if c.Settings.DebugQuery == "" {
		return nil, core.Errorf(core.KindConstraint,
			"no debug query configured in settings (the SQL query which executes the to-be-debugged UDF)")
	}
	wc, err := c.pool.Get(ctx)
	if err != nil {
		return nil, err
	}
	dc, err := wc.Debug()
	if err != nil {
		c.pool.Put(wc)
		return nil, err
	}
	return &RemoteDebugSession{
		ctx:         ctx,
		dc:          dc,
		pool:        c.pool,
		wc:          wc,
		query:       c.Settings.DebugQuery,
		udf:         udfName,
		stopOnEntry: stopOnEntry,
		bps:         map[int]string{},
	}, nil
}

// SetBreakpoint sets (or replaces) a breakpoint; live once launched.
func (s *RemoteDebugSession) SetBreakpoint(line int, condition string) error {
	s.bps[line] = condition
	if !s.launched {
		return nil
	}
	return s.pushBreakpoints()
}

// ClearBreakpoint removes a breakpoint.
func (s *RemoteDebugSession) ClearBreakpoint(line int) error {
	delete(s.bps, line)
	if !s.launched {
		return nil
	}
	return s.pushBreakpoints()
}

// Breakpoints lists the session's breakpoints sorted by line.
func (s *RemoteDebugSession) Breakpoints() []debug.Breakpoint {
	out := make([]debug.Breakpoint, 0, len(s.bps))
	for line, cond := range s.bps {
		out = append(out, debug.Breakpoint{Line: line, Condition: cond})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Line < out[j].Line })
	return out
}

func (s *RemoteDebugSession) breakpointList() []wire.DebugBreakpoint {
	out := make([]wire.DebugBreakpoint, 0, len(s.bps))
	for line, cond := range s.bps {
		out = append(out, wire.DebugBreakpoint{Line: line, Condition: cond})
	}
	return out
}

func (s *RemoteDebugSession) pushBreakpoints() error {
	_, err := s.dc.RoundTrip(s.ctx, wire.DebugRequest{
		Command:     wire.DebugCmdSetBreakpoints,
		Breakpoints: s.breakpointList(),
	})
	return err
}

// Start launches the debug query on the server and returns the first stop
// event: the entry pause when stop-on-entry, otherwise the first breakpoint
// hit / completion.
func (s *RemoteDebugSession) Start() (debug.Event, error) {
	if s.launched {
		return debug.Event{}, core.Errorf(core.KindConstraint, "session already started")
	}
	_, err := s.dc.RoundTrip(s.ctx, wire.DebugRequest{
		Command:     wire.DebugCmdLaunch,
		Query:       s.query,
		UDF:         s.udf,
		StopOnEntry: s.stopOnEntry,
		Breakpoints: s.breakpointList(),
	})
	if err != nil {
		return debug.Event{}, err
	}
	s.launched = true
	return s.waitStop()
}

// waitStop blocks until the next stopped or terminated event.
func (s *RemoteDebugSession) waitStop() (debug.Event, error) {
	ev, err := s.dc.WaitEvent(s.ctx)
	if err != nil {
		return debug.Event{}, err
	}
	if ev.Kind == wire.DebugEventTerminated {
		s.lastStatus = ev.Msg
	}
	return ev.Event(), nil
}

// resume sends one resume command and waits for the resulting stop event.
func (s *RemoteDebugSession) resume(cmd string) (debug.Event, error) {
	if _, err := s.dc.RoundTrip(s.ctx, wire.DebugRequest{Command: cmd}); err != nil {
		return debug.Event{}, err
	}
	return s.waitStop()
}

// Continue resumes until the next breakpoint, pause request or completion.
func (s *RemoteDebugSession) Continue() (debug.Event, error) { return s.resume(wire.DebugCmdContinue) }

// StepOver resumes until the next line at the same or a shallower depth.
func (s *RemoteDebugSession) StepOver() (debug.Event, error) { return s.resume(wire.DebugCmdStepOver) }

// StepInto resumes until the next line anywhere (entering calls).
func (s *RemoteDebugSession) StepInto() (debug.Event, error) { return s.resume(wire.DebugCmdStepInto) }

// StepOut resumes until control returns to the caller.
func (s *RemoteDebugSession) StepOut() (debug.Event, error) { return s.resume(wire.DebugCmdStepOut) }

// Kill aborts the debuggee and returns the terminal event.
func (s *RemoteDebugSession) Kill() (debug.Event, error) { return s.resume(wire.DebugCmdKill) }

// Pause asks the running debuggee to stop at its next line. Unlike the
// other controls it is asynchronous: the stop event materializes from the
// in-flight (or next) control call.
func (s *RemoteDebugSession) Pause() error {
	_, err := s.dc.RoundTrip(s.ctx, wire.DebugRequest{Command: wire.DebugCmdPause})
	return err
}

// Eval evaluates a watch expression in the paused frame; values come back
// as their repr.
func (s *RemoteDebugSession) Eval(expr string) (string, error) {
	rep, err := s.dc.RoundTrip(s.ctx, wire.DebugRequest{Command: wire.DebugCmdEval, Expr: expr})
	if err != nil {
		return "", err
	}
	return rep.Value, nil
}

// Locals returns the paused frame's local variables as repr strings.
func (s *RemoteDebugSession) Locals() (map[string]string, error) {
	rep, err := s.dc.RoundTrip(s.ctx, wire.DebugRequest{Command: wire.DebugCmdLocals})
	if err != nil {
		return nil, err
	}
	return rep.Vars, nil
}

// GlobalVars returns the module-level variables as repr strings.
func (s *RemoteDebugSession) GlobalVars() (map[string]string, error) {
	rep, err := s.dc.RoundTrip(s.ctx, wire.DebugRequest{Command: wire.DebugCmdGlobals})
	if err != nil {
		return nil, err
	}
	return rep.Vars, nil
}

// Stack returns the call stack, innermost frame first.
func (s *RemoteDebugSession) Stack() ([]debug.FrameInfo, error) {
	rep, err := s.dc.RoundTrip(s.ctx, wire.DebugRequest{Command: wire.DebugCmdStack})
	if err != nil {
		return nil, err
	}
	frames := make([]debug.FrameInfo, len(rep.Frames))
	for i, f := range rep.Frames {
		frames[i] = debug.FrameInfo{FuncName: f.Func, Line: f.Line, Depth: f.Depth}
	}
	return frames, nil
}

// Source returns the server-side wrapper module's source lines, fetched
// once the debuggee is attached (nil before the first stop).
func (s *RemoteDebugSession) Source() []string {
	if s.source != nil {
		return s.source
	}
	rep, err := s.dc.RoundTrip(s.ctx, wire.DebugRequest{Command: wire.DebugCmdSource})
	if err != nil {
		return nil
	}
	s.source = rep.Source
	return s.source
}

// Status returns the debug query's status message after the terminated
// event ("SELECT 1", ...).
func (s *RemoteDebugSession) Status() string { return s.lastStatus }

// Close kills any active debuggee, tears down the debug connection and
// releases its pool slot. Safe to call more than once.
func (s *RemoteDebugSession) Close() error {
	if s.dc == nil {
		return nil
	}
	err := s.dc.Close()
	s.dc = nil
	// The connection carried demuxed debug state and is poisoned; Put
	// retires it and frees the slot for a fresh dial.
	s.pool.Put(s.wc)
	return err
}

package wire

import (
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/debug"
	"repro/internal/script"
	"repro/internal/storage"
	"repro/internal/udfrt"
)

// connWriter serializes writes to one connection so the query worker's
// responses and debug events and the frame loop's pongs and debug replies
// never interleave mid-frame (or mid-stream). Its two methods are the only
// code that touches mu; callers encode before they call.
type connWriter struct {
	mu sync.Mutex
	fw frameWriter
}

func (w *connWriter) writeFrame(typ byte, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	//lockblock:ok this mutex exists to serialize frame writes from the event and reply paths
	return w.fw.writeFrame(typ, payload)
}

// writeStream ships a chunked result as one unit: no other frame can land
// between its chunks and its MsgResultEnd.
func (w *connWriter) writeStream(msg string, t *storage.Table, chunkBytes int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	//lockblock:ok this mutex exists to keep a result stream's frames contiguous
	return w.fw.writeResultStream(msg, t, chunkBytes)
}

// debugRun is one remote debug run on one connection: the launch request,
// the breakpoints wanted, and the debug.Session once the engine reaches the
// target UDF. The query worker executes the run as a statement (runDebug);
// the debuggee runs on the worker, inside the engine call, under the
// session's pause loop, which is the run's only controller: the frame loop
// hands it commands, and it refuses them unless the debuggee is paused.
type debugRun struct {
	w    *connWriter
	req  DebugRequest
	kill <-chan struct{} // the connection's connDone

	mu       sync.Mutex
	bps      map[int]string // desired breakpoints: line → condition
	sess     *debug.Session // non-nil once a UDF invocation is attached
	finished bool

	killed bool // the attached session ended killed; query worker only
}

func newDebugRun(w *connWriter, req DebugRequest, kill <-chan struct{}) *debugRun {
	dr := &debugRun{w: w, req: req, kill: kill, bps: map[int]string{}}
	for _, bp := range req.Breakpoints {
		dr.bps[bp.Line] = bp.Condition
	}
	return dr
}

// runDebug executes a launched debug run on the query worker: the launch's
// query on the connection's session, under its interrupt and QueryTimeout,
// with the Invoke hook that attaches the debugger, then the terminated
// event.
func (sc *serverConn) runDebug(dr *debugRun) {
	if m := sc.srv.metrics; m != nil {
		m.debugSessions.Add(1)
		defer m.debugSessions.Add(-1)
	}
	evt := DebugEventMsg{Kind: DebugEventTerminated, Reason: string(debug.ReasonDone)}
	if err := sc.srv.checkDebuggable(dr.req.UDF); err != nil {
		evt.Reason, evt.Err = string(debug.ReasonException), errString(err)
	} else {
		o := sc.execOpts(nil)
		o.Invoke = dr.invoke
		res, err := sc.sess.ExecWith(o, dr.req.Query)
		if dr.killed {
			evt.Reason = string(debug.ReasonKilled)
		}
		if res != nil {
			evt.Msg = res.Msg
		}
		if err != nil {
			evt.Err = errString(err)
		}
	}
	dr.mu.Lock()
	dr.finished = true
	dr.mu.Unlock()
	// A closed connection makes this a no-op; the client is gone.
	_ = sc.w.writeFrame(MsgDebugEvent, EncodeDebugEvent(evt))
}

// invoke is the engine hook: the first invocation of the target UDF runs
// under an attached debug session, on the calling goroutine; every other UDF
// (and later invocations) runs plain.
func (dr *debugRun) invoke(name string, in *script.Interp, lines []string,
	call func() (script.Value, error)) (script.Value, error) {
	dr.mu.Lock()
	if dr.sess != nil || !strings.EqualFold(name, dr.req.UDF) {
		dr.mu.Unlock()
		return call()
	}
	var out script.Value
	sess := debug.AttachSession(in, lines, func() error {
		v, err := call()
		out = v
		return err
	}, debug.Config{StopOnEntry: dr.req.StopOnEntry}, dr.stopped, dr.kill)
	for line, cond := range dr.bps {
		sess.SetBreakpoint(line, cond)
	}
	dr.sess = sess
	dr.mu.Unlock()

	dr.killed = sess.Start().Reason == debug.ReasonKilled
	// Uninstall the trace hook: in tuple-at-a-time mode the engine reuses
	// this interpreter for the next row, which runs undebugged.
	in.Trace = nil
	_, err := sess.Result()
	return out, err
}

// stopped pushes one stop of the attached session to the client.
func (dr *debugRun) stopped(ev debug.Event) {
	_ = dr.w.writeFrame(MsgDebugEvent, EncodeDebugEvent(DebugEventMsg{
		Kind:   DebugEventStopped,
		Reason: string(ev.Reason),
		Line:   ev.Line,
		Func:   ev.FuncName,
		Depth:  ev.Depth,
	}))
}

// active reports whether a launch is still queued or executing.
func (dr *debugRun) active() bool {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	return !dr.finished
}

// handleDebug processes one MsgDebug request and writes its MsgDebugReply.
// It reports whether the connection should keep serving (always true: debug
// errors are in-band, never fatal to the session).
func (sc *serverConn) handleDebug(payload []byte) bool {
	req, err := DecodeDebugRequest(payload)
	if err != nil {
		// Without a decodable request there is no seq to address the reply
		// to — a reply the client could never match would hang its caller.
		// The framing is broken; drop the connection.
		sc.shutdown()
		_ = sc.w.writeFrame(MsgDebugReply, EncodeDebugReply(DebugReply{
			Success: false, Error: err.Error()}))
		return false
	}
	rep := DebugReply{Seq: req.Seq, Success: true}
	if err := sc.debugCommand(req, &rep); err != nil {
		rep.Success = false
		rep.Error = errString(err)
	}
	return sc.w.writeFrame(MsgDebugReply, EncodeDebugReply(rep)) == nil
}

// debugCommand executes one debug request on the frame loop. A launch joins
// the query queue; every other command acts on the connection's debug run.
func (sc *serverConn) debugCommand(req DebugRequest, rep *DebugReply) error {
	switch req.Command {
	case DebugCmdLaunch:
		if req.Query == "" || req.UDF == "" {
			return core.Errorf(core.KindConstraint, "launch needs a query and a udf")
		}
		if sc.dr != nil && sc.dr.active() {
			return core.Errorf(core.KindConstraint, "a debug session is already active")
		}
		sc.dr = newDebugRun(sc.w, req, sc.connDone)
		// In FIFO order behind the pending statements, never shed.
		sc.queries.push(qitem{dr: sc.dr}, 0)
		return nil
	case DebugCmdSetBreakpoints, DebugCmdContinue, DebugCmdStepOver, DebugCmdStepInto,
		DebugCmdStepOut, DebugCmdKill, DebugCmdPause, DebugCmdStack, DebugCmdLocals,
		DebugCmdGlobals, DebugCmdEval, DebugCmdSource:
	default:
		return core.Errorf(core.KindProtocol, "unknown debug command %q", req.Command)
	}
	if sc.dr == nil {
		return core.Errorf(core.KindConstraint, "no debug session")
	}
	if req.Command == DebugCmdSetBreakpoints {
		sc.dr.setBreakpoints(req.Breakpoints)
		return nil
	}
	sc.dr.mu.Lock()
	sess := sc.dr.sess
	sc.dr.mu.Unlock()
	if sess == nil || req.Command == DebugCmdPause && sess.Finished() {
		return core.Errorf(core.KindConstraint, "no UDF invocation is attached")
	}
	return serveSession(sess, req, rep)
}

// serveSession executes one control or inspection command on an attached
// session. Resumes and inspections go to its pause loop, which refuses them
// in-band unless the debuggee is paused; the stop a resume leads to is
// pushed by the worker.
func serveSession(sess *debug.Session, req DebugRequest, rep *DebugReply) error {
	var vars map[string]script.Value
	var err error
	switch req.Command {
	case DebugCmdContinue:
		return sess.Continue().Err
	case DebugCmdStepOver:
		return sess.StepOver().Err
	case DebugCmdStepInto:
		return sess.StepInto().Err
	case DebugCmdStepOut:
		return sess.StepOut().Err
	case DebugCmdKill:
		return sess.Kill().Err
	case DebugCmdPause:
		sess.RequestPause()
		return nil
	case DebugCmdSource:
		rep.Source = sess.Source()
		return nil
	case DebugCmdEval:
		v, err := sess.Eval(req.Expr)
		if err != nil {
			return err
		}
		rep.Value = v.Repr()
		return nil
	case DebugCmdStack:
		frames, err := sess.Stack()
		for _, f := range frames {
			rep.Frames = append(rep.Frames, DebugFrame{Func: f.FuncName, Line: f.Line, Depth: f.Depth})
		}
		return err
	case DebugCmdLocals:
		vars, err = sess.Locals()
	case DebugCmdGlobals:
		vars, err = sess.GlobalVars()
	}
	if err != nil {
		return err
	}
	rep.Vars = make(map[string]string, len(vars))
	for k, v := range vars {
		rep.Vars[k] = v.Repr()
	}
	return nil
}

// checkDebuggable rejects debug launches against UDFs whose runtime cannot
// run under the interpreter trace hook (the native GO runtime): without the
// check the query would simply run to completion with nothing to attach to,
// which reads like a hung debugger. Unknown UDFs pass through — the query
// itself reports the missing function.
func (s *Server) checkDebuggable(udf string) error {
	var def *storage.FuncDef
	_ = s.DB.Lock(func(cat *storage.Catalog) error {
		def, _ = cat.Function(udf)
		return nil
	})
	if def == nil || udfrt.LanguageDebuggable(def.Language) {
		return nil
	}
	return core.Errorf(core.KindConstraint,
		"UDF %s runs on the %s runtime, which is not debuggable",
		def.Name, udfrt.Canonical(def.Language))
}

// setBreakpoints replaces the full breakpoint set, live when attached.
func (dr *debugRun) setBreakpoints(bps []DebugBreakpoint) {
	dr.mu.Lock()
	sess := dr.sess
	old := dr.bps
	dr.bps = map[int]string{}
	for _, bp := range bps {
		dr.bps[bp.Line] = bp.Condition
	}
	next := dr.bps
	dr.mu.Unlock()
	if sess == nil {
		return
	}
	for line := range old {
		if _, keep := next[line]; !keep {
			sess.ClearBreakpoint(line)
		}
	}
	for line, cond := range next {
		sess.SetBreakpoint(line, cond)
	}
}

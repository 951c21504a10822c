package wire

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/debug"
	"repro/internal/script"
	"repro/internal/storage"
	"repro/internal/udfrt"
)

// connWriter serializes writes to one connection so statement replies and
// debug events from the goroutine running statements and the reader's
// pongs and debug replies never interleave mid-frame (or mid-stream). Its
// two methods are the only code that touches mu; callers encode before
// they call.
type connWriter struct {
	mu sync.Mutex
	fw frameWriter
}

func (w *connWriter) writeFrame(typ byte, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fw.writeFrame(typ, payload) //lockblock:ok this mutex exists to serialize frame writes from the event and reply paths
}

// writeStream ships a chunked result as one unit: no other frame can land
// between its chunks and its MsgResultEnd.
func (w *connWriter) writeStream(msg string, t *storage.Table, chunkBytes int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fw.writeResultStream(msg, t, chunkBytes) //lockblock:ok this mutex exists to keep a result stream's frames contiguous
}

// debugRun is one remote debug run on one connection: the launch request
// and its debug.Session, made at launch with the launch's breakpoints. The
// run is a statement (runDebug), executed like any other: on the goroutine
// that read the launch, or behind the pending statements. When the engine
// reaches the target UDF, the debuggee runs under the session on that
// goroutine, inside the engine call, and the session's pause loop is the
// run's only controller: the reader hands it commands, and it refuses them
// unless the debuggee is paused. A paused debuggee is a statement that
// outlived the relief bound, so the reader is then the other goroutine.
type debugRun struct {
	w        *connWriter
	req      DebugRequest
	kill     <-chan struct{} // the connection's connDone
	sess     *debug.Session
	finished atomic.Bool // the launch's statement has ended
}

func newDebugRun(w *connWriter, req DebugRequest, kill <-chan struct{}) *debugRun {
	sess := debug.New(debug.Config{StopOnEntry: req.StopOnEntry})
	sess.SetBreakpoints(sessionBreakpoints(req.Breakpoints))
	return &debugRun{w: w, req: req, kill: kill, sess: sess}
}

// sessionBreakpoints is bps in the debugger's terms.
func sessionBreakpoints(bps []DebugBreakpoint) []debug.Breakpoint {
	out := make([]debug.Breakpoint, len(bps))
	for i, bp := range bps {
		out[i] = debug.Breakpoint{Line: bp.Line, Condition: bp.Condition}
	}
	return out
}

// runDebug executes a launched debug run as a statement: the launch's
// query on the connection's session, under its interrupt and QueryTimeout,
// with the Invoke hook that runs the debuggee, then the terminated event.
func (sc *serverConn) runDebug(dr *debugRun) {
	if m := sc.srv.metrics; m != nil {
		m.debugSessions.Add(1)
		defer m.debugSessions.Add(-1)
	}
	evt := DebugEventMsg{Kind: DebugEventTerminated, Reason: string(debug.ReasonDone)}
	if err := sc.srv.checkDebuggable(dr.req.UDF); err != nil {
		evt.Reason, evt.Err = string(debug.ReasonException), core.Message(err)
	} else {
		o := sc.execOpts(nil)
		o.Invoke = dr.Run
		res, err := sc.sess.ExecWith(o, dr.req.Query)
		if end, _ := dr.sess.Ended(); end.Reason == debug.ReasonKilled {
			evt.Reason = string(debug.ReasonKilled)
		}
		if res != nil {
			evt.Msg = res.Msg
		}
		if err != nil {
			evt.Err = core.Message(err)
		}
	}
	dr.finished.Store(true)
	// A closed connection makes this a no-op; the client is gone.
	_ = sc.w.writeFrame(MsgDebugEvent, EncodeDebugEvent(evt))
}

// Run is the engine's Invoke hook: the first invocation of the target UDF
// runs under the session, on the calling goroutine; every other UDF (and
// later invocations) runs plain.
func (dr *debugRun) Run(name string, in *script.Interp, lines []string,
	call func() (script.Value, error)) (script.Value, error) {
	if dr.sess.Started() || !strings.EqualFold(name, dr.req.UDF) {
		return call()
	}
	var out script.Value
	var err error
	dr.sess.Run(in, lines, func() error {
		out, err = call()
		return err
	}, dr.stopped, dr.kill)
	return out, err
}

// stopped pushes one stop of the session to the client.
func (dr *debugRun) stopped(ev debug.Event) {
	_ = dr.w.writeFrame(MsgDebugEvent, EncodeDebugEvent(DebugEventMsg{
		Kind:   DebugEventStopped,
		Reason: string(ev.Reason),
		Line:   ev.Line,
		Func:   ev.FuncName,
		Depth:  ev.Depth,
	}))
}

// handleDebug processes one MsgDebug request and writes its MsgDebugReply.
// Debug errors are in-band, never fatal to the session; only a request
// that does not decode, or a reply that cannot be written, ends it. An
// accepted launch runs after its reply, as a statement (run).
func (sc *serverConn) handleDebug(payload []byte) next {
	req, err := DecodeDebugRequest(payload)
	if err != nil {
		// Without a decodable request there is no seq to address the reply
		// to — a reply the client could never match would hang its caller.
		// The framing is broken; drop the connection.
		sc.shutdown()
		_ = sc.w.writeFrame(MsgDebugReply, EncodeDebugReply(DebugReply{
			Success: false, Error: err.Error()}))
		return hangUp
	}
	rep := DebugReply{Seq: req.Seq, Success: true}
	if err := sc.debugCommand(req, &rep); err != nil {
		rep.Success = false
		rep.Error = core.Message(err)
	}
	if sc.w.writeFrame(MsgDebugReply, EncodeDebugReply(rep)) != nil {
		return hangUp
	}
	if req.Command == DebugCmdLaunch && rep.Success {
		// In FIFO order behind the pending statements, never shed.
		return sc.run(qitem{dr: sc.dr}, 0)
	}
	return readOn
}

// debugCommand executes one debug request on the reader. A launch makes the
// connection's debug run, which handleDebug then runs like a statement;
// every other command acts on the run's session. Only setBreakpoints acts
// before the engine reaches the UDF; a resume or an inspection goes to the
// pause loop, which refuses it in-band unless the debuggee is paused, and
// the stop a resume leads to is pushed by the goroutine running the
// debuggee.
func (sc *serverConn) debugCommand(req DebugRequest, rep *DebugReply) error {
	var act func(*debug.Session) error
	switch req.Command {
	case DebugCmdLaunch:
		if req.Query == "" || req.UDF == "" {
			return core.Errorf(core.KindConstraint, "launch needs a query and a udf")
		}
		if sc.dr != nil && !sc.dr.finished.Load() {
			return core.Errorf(core.KindConstraint, "a debug session is already active")
		}
		sc.dr = newDebugRun(sc.w, req, sc.connDone)
		return nil
	case DebugCmdSetBreakpoints:
		act = func(s *debug.Session) error {
			s.SetBreakpoints(sessionBreakpoints(req.Breakpoints))
			return nil
		}
	case DebugCmdContinue:
		act = (*debug.Session).Continue
	case DebugCmdStepOver:
		act = (*debug.Session).StepOver
	case DebugCmdStepInto:
		act = (*debug.Session).StepInto
	case DebugCmdStepOut:
		act = (*debug.Session).StepOut
	case DebugCmdKill:
		act = (*debug.Session).Kill
	case DebugCmdPause:
		act = func(s *debug.Session) error {
			if _, ended := s.Ended(); ended {
				return errNotAttached
			}
			s.RequestPause()
			return nil
		}
	case DebugCmdSource:
		act = func(s *debug.Session) error {
			rep.Source = s.Source()
			return nil
		}
	case DebugCmdEval:
		act = func(s *debug.Session) error {
			v, err := s.Eval(req.Expr)
			if err == nil {
				rep.Value = v.Repr()
			}
			return err
		}
	case DebugCmdStack:
		act = func(s *debug.Session) error {
			frames, err := s.Stack()
			for _, f := range frames {
				rep.Frames = append(rep.Frames, DebugFrame{Func: f.FuncName, Line: f.Line, Depth: f.Depth})
			}
			return err
		}
	case DebugCmdLocals:
		act = func(s *debug.Session) error { return replyVars(rep, s.Locals) }
	case DebugCmdGlobals:
		act = func(s *debug.Session) error { return replyVars(rep, s.GlobalVars) }
	default:
		return core.Errorf(core.KindProtocol, "unknown debug command %q", req.Command)
	}
	if sc.dr == nil {
		return core.Errorf(core.KindConstraint, "no debug session")
	}
	if req.Command != DebugCmdSetBreakpoints && !sc.dr.sess.Started() {
		return errNotAttached
	}
	return act(sc.dr.sess)
}

var errNotAttached = core.Errorf(core.KindConstraint, "no UDF invocation is attached")

// replyVars puts the variables read renders into rep.
func replyVars(rep *DebugReply, read func() (map[string]script.Value, error)) error {
	vars, err := read()
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

package wire

import (
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/debug"
	"repro/internal/engine"
	"repro/internal/script"
	"repro/internal/storage"
	"repro/internal/udfrt"
)

// connWriter serializes writes to one connection so the query worker's
// responses, the frame loop's pongs and debug replies, and the debug
// controller's asynchronous event pushes never interleave mid-frame (or
// mid-stream). Its two methods are the only code that touches mu; callers
// encode before they call.
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

// ctrlCmd is a resume command queued to the debug controller.
type ctrlCmd int

const (
	ctrlContinue ctrlCmd = iota
	ctrlStepOver
	ctrlStepInto
	ctrlStepOut
	ctrlKill
)

// debugRun is one remote debug session on one connection: the launch
// parameters, the attached debug.Session once the engine reaches the target
// UDF, and the controller plumbing between the wire request loop and the
// debuggee. The debug query executes on its own goroutine with the engine's
// UDFInvoke hook pointed at invoke; that goroutine becomes the session
// controller (driving Start/Continue/... and pushing stop events) while the
// wire loop merely queues resume commands and serves inspections.
type debugRun struct {
	srv         *Server
	w           *connWriter
	udf         string
	stopOnEntry bool
	connDone    <-chan struct{}

	mu         sync.Mutex
	bps        map[int]string // desired breakpoints: line → condition
	sess       *debug.Session // non-nil once a UDF invocation is attached
	attached   bool           // only the first matching invocation attaches
	paused     bool
	finished   bool
	termReason debug.StopReason

	ctrl chan ctrlCmd // capacity 1: at most one pending resume
}

func newDebugRun(srv *Server, w *connWriter, req DebugRequest, connDone <-chan struct{}) *debugRun {
	dr := &debugRun{
		srv:         srv,
		w:           w,
		udf:         req.UDF,
		stopOnEntry: req.StopOnEntry,
		connDone:    connDone,
		bps:         map[int]string{},
		ctrl:        make(chan ctrlCmd, 1),
		termReason:  debug.ReasonDone,
	}
	for _, bp := range req.Breakpoints {
		dr.bps[bp.Line] = bp.Condition
	}
	return dr
}

// launch runs the debug query on a fresh engine session whose UDFInvoke
// hook attaches the debugger, then pushes the terminated event. It is the
// goroutine the wire loop spawns per launch request. The debuggability
// check runs here — not on the frame loop — because it takes the database
// lock, which a paused debuggee of another session may hold indefinitely.
func (dr *debugRun) launch(econn *engine.Conn, query string) {
	if m := dr.srv.metrics; m != nil {
		m.debugSessions.Add(1)
		defer m.debugSessions.Add(-1)
	}
	if err := dr.srv.checkDebuggable(dr.udf); err != nil {
		dr.mu.Lock()
		dr.finished = true
		dr.mu.Unlock()
		_ = dr.w.writeFrame(MsgDebugEvent, EncodeDebugEvent(DebugEventMsg{
			Kind:   DebugEventTerminated,
			Reason: string(debug.ReasonException),
			Err:    errString(err),
		}))
		return
	}
	dconn := &engine.Conn{
		DB:        econn.DB,
		User:      econn.User,
		Password:  econn.Password,
		UDFInvoke: dr.invoke,
	}
	res, err := dconn.Exec(query)
	dr.mu.Lock()
	dr.finished = true
	dr.paused = false
	reason := dr.termReason
	dr.mu.Unlock()
	evt := DebugEventMsg{Kind: DebugEventTerminated, Reason: string(reason)}
	if res != nil {
		evt.Msg = res.Msg
	}
	if err != nil {
		evt.Err = errString(err)
	}
	// A closed connection makes this a no-op; the client is gone.
	_ = dr.w.writeFrame(MsgDebugEvent, EncodeDebugEvent(evt))
}

// invoke is the engine hook: the first invocation of the target UDF runs
// under an attached debug session, every other UDF (and later invocations)
// runs plain.
func (dr *debugRun) invoke(name string, in *script.Interp, lines []string,
	call func() (script.Value, error)) (script.Value, error) {
	dr.mu.Lock()
	if dr.attached || !strings.EqualFold(name, dr.udf) {
		dr.mu.Unlock()
		return call()
	}
	dr.attached = true
	var out script.Value
	sess := debug.AttachSession(in, lines, func() error {
		v, err := call()
		out = v
		return err
	}, debug.Config{StopOnEntry: dr.stopOnEntry})
	for line, cond := range dr.bps {
		sess.SetBreakpoint(line, cond)
	}
	dr.sess = sess
	dr.mu.Unlock()

	// If the client disconnects while the debuggee is paused (or running),
	// kill it so it cannot pin the database forever.
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-dr.connDone:
			sess.RequestPause()
			sess.Kill()
		case <-stopWatch:
		}
	}()

	err := dr.drive(sess)
	// Uninstall the trace hook: in tuple-at-a-time mode the engine reuses
	// this interpreter for the next row, and a dead session's hook would
	// block forever on its event channel.
	in.Trace = nil
	return out, err
}

// drive is the session controller: it starts the debuggee, pushes a stopped
// event at every pause, and executes resume commands queued by the wire
// loop, until the debuggee terminates. It runs on the engine goroutine —
// the debuggee body itself executes on the session's internal goroutine.
func (dr *debugRun) drive(sess *debug.Session) error {
	ev := sess.Start()
	for !ev.Terminal {
		dr.mu.Lock()
		dr.paused = true
		dr.mu.Unlock()
		_ = dr.w.writeFrame(MsgDebugEvent, EncodeDebugEvent(DebugEventMsg{
			Kind:   DebugEventStopped,
			Reason: string(ev.Reason),
			Line:   ev.Line,
			Func:   ev.FuncName,
			Depth:  ev.Depth,
		}))
		var cmd ctrlCmd
		select {
		case cmd = <-dr.ctrl:
		case <-dr.connDone:
			cmd = ctrlKill
		}
		dr.mu.Lock()
		dr.paused = false
		dr.mu.Unlock()
		switch cmd {
		case ctrlContinue:
			ev = sess.Continue()
		case ctrlStepOver:
			ev = sess.StepOver()
		case ctrlStepInto:
			ev = sess.StepInto()
		case ctrlStepOut:
			ev = sess.StepOut()
		case ctrlKill:
			ev = sess.Kill()
		}
	}
	dr.mu.Lock()
	dr.termReason = ev.Reason
	dr.mu.Unlock()
	_, err := sess.Result()
	return err
}

// resume queues one resume command. It fails when the debuggee is not
// paused or a resume is already pending.
func (dr *debugRun) resume(cmd ctrlCmd) error {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	if dr.sess == nil || dr.finished {
		return core.Errorf(core.KindConstraint, "debuggee is not paused")
	}
	if !dr.paused {
		return core.Errorf(core.KindConstraint, "debuggee is running")
	}
	select {
	case dr.ctrl <- cmd:
		dr.paused = false
		return nil
	default:
		return core.Errorf(core.KindConstraint, "a resume is already pending")
	}
}

// pause requests an asynchronous stop at the debuggee's next line.
func (dr *debugRun) pause() error {
	dr.mu.Lock()
	sess := dr.sess
	finished := dr.finished
	dr.mu.Unlock()
	if sess == nil || finished {
		return core.Errorf(core.KindConstraint, "no UDF invocation is attached")
	}
	sess.RequestPause()
	return nil
}

// session returns the attached session if the debuggee is currently paused.
func (dr *debugRun) session() (*debug.Session, error) {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	if dr.sess == nil || dr.finished || !dr.paused {
		return nil, core.Errorf(core.KindConstraint, "debuggee is not paused")
	}
	return dr.sess, nil
}

// active reports whether a launch is still in flight.
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
	fail := func(err error) {
		rep.Success = false
		rep.Error = errString(err)
	}
	switch req.Command {
	case DebugCmdLaunch:
		if req.Query == "" || req.UDF == "" {
			fail(core.Errorf(core.KindConstraint, "launch needs a query and a udf"))
			break
		}
		if sc.dr != nil && sc.dr.active() {
			fail(core.Errorf(core.KindConstraint, "a debug session is already active"))
			break
		}
		dr := newDebugRun(sc.srv, sc.w, req, sc.connDone)
		sc.dr = dr
		sc.srv.wg.Add(1)
		go func() {
			defer sc.srv.wg.Done()
			dr.launch(sc.sess, req.Query)
		}()
	case DebugCmdSetBreakpoints:
		if sc.dr == nil {
			fail(core.Errorf(core.KindConstraint, "no debug session"))
			break
		}
		sc.dr.setBreakpoints(req.Breakpoints)
	case DebugCmdContinue, DebugCmdStepOver, DebugCmdStepInto, DebugCmdStepOut, DebugCmdKill:
		if sc.dr == nil {
			fail(core.Errorf(core.KindConstraint, "no debug session"))
			break
		}
		cmd := map[string]ctrlCmd{
			DebugCmdContinue: ctrlContinue,
			DebugCmdStepOver: ctrlStepOver,
			DebugCmdStepInto: ctrlStepInto,
			DebugCmdStepOut:  ctrlStepOut,
			DebugCmdKill:     ctrlKill,
		}[req.Command]
		if err := sc.dr.resume(cmd); err != nil {
			fail(err)
		}
	case DebugCmdPause:
		if sc.dr == nil {
			fail(core.Errorf(core.KindConstraint, "no debug session"))
			break
		}
		if err := sc.dr.pause(); err != nil {
			fail(err)
		}
	case DebugCmdStack, DebugCmdLocals, DebugCmdGlobals, DebugCmdEval, DebugCmdSource:
		if sc.dr == nil {
			fail(core.Errorf(core.KindConstraint, "no debug session"))
			break
		}
		if err := sc.dr.inspect(req, &rep); err != nil {
			fail(err)
		}
	default:
		fail(core.Errorf(core.KindProtocol, "unknown debug command %q", req.Command))
	}
	return sc.w.writeFrame(MsgDebugReply, EncodeDebugReply(rep)) == nil
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

// inspect serves the inspection commands. Source only needs an attached
// session; the rest require the debuggee to be paused.
func (dr *debugRun) inspect(req DebugRequest, rep *DebugReply) error {
	if req.Command == DebugCmdSource {
		dr.mu.Lock()
		sess := dr.sess
		dr.mu.Unlock()
		if sess == nil {
			return core.Errorf(core.KindConstraint, "no UDF invocation is attached")
		}
		rep.Source = sess.Source()
		return nil
	}
	sess, err := dr.session()
	if err != nil {
		return err
	}
	switch req.Command {
	case DebugCmdStack:
		frames, err := sess.Stack()
		if err != nil {
			return err
		}
		for _, f := range frames {
			rep.Frames = append(rep.Frames, DebugFrame{Func: f.FuncName, Line: f.Line, Depth: f.Depth})
		}
	case DebugCmdLocals, DebugCmdGlobals:
		var vars map[string]script.Value
		if req.Command == DebugCmdLocals {
			vars, err = sess.Locals()
		} else {
			vars, err = sess.GlobalVars()
		}
		if err != nil {
			return err
		}
		rep.Vars = make(map[string]string, len(vars))
		for k, v := range vars {
			rep.Vars[k] = v.Repr()
		}
	case DebugCmdEval:
		v, err := sess.Eval(req.Expr)
		if err != nil {
			return err
		}
		rep.Value = v.Repr()
	}
	return nil
}

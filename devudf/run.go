package devudf

import (
	"bytes"
	"context"
	"strings"

	"repro/internal/core"
	"repro/internal/debug"
	"repro/internal/engine"
	"repro/internal/script"
	"repro/internal/storage"
	"repro/internal/transfer"
	"repro/internal/transform"
	"repro/internal/udfrt"
	"repro/internal/udfrt/gort"
	"repro/internal/udfrt/pyrt"
)

// ExtractInfo summarizes one input extraction (§2.2) as asked and as
// answered: the UDF and the transfer options devUDF asked for, the rows its
// inputs hold and the rows shipped after sampling, and the payload's size.
type ExtractInfo struct {
	UDF          string
	TotalRows    int64
	SampleRows   int64
	PayloadBytes int
	Compressed   bool
	Encrypted    bool
}

// ExtractInputs rewrites the settings' debug query so the UDF call becomes
// a call to the server-side extract function, runs it, unpacks the payload
// with the connection password, and stores the UDF's input parameters as
// the project's input.bin (paper §2.2). The parameters are written as they
// arrived, the bytes the payload pickled them to, without being decoded and
// pickled again. The target UDF must already be imported.
func (c *Client) ExtractInputs(ctx context.Context, udfName string) (*ExtractInfo, error) {
	if c.Settings.DebugQuery == "" {
		return nil, core.Errorf(core.KindConstraint,
			"no debug query configured in settings (the SQL query which executes the to-be-debugged UDF)")
	}
	info, _, err := c.Project.LoadUDF(udfName)
	if err != nil {
		return nil, err
	}
	x, params, err := c.extract(ctx, c.Settings.DebugQuery, info.Name)
	if err != nil {
		return nil, err
	}
	if err := c.Project.FS().WriteFile(c.Project.InputPath(info.Name), params); err != nil {
		return nil, err
	}
	return x, nil
}

// extract runs sql rewritten so that the server extracts the inputs of
// its call of udfName (§2.2) under the settings' transfer options, and
// returns the extraction's summary and the pickle of the parameter dict its
// payload unpacks to (paramsOf). The answer is read by column name; one
// that lacks a column of transform.ExtractAnswer is a protocol error.
func (c *Client) extract(ctx context.Context, sql, udfName string) (*ExtractInfo, []byte, error) {
	opts := c.Settings.Transfer
	rewritten, err := transform.RewriteToExtract(sql, udfName, opts)
	if err != nil {
		return nil, nil, err
	}
	_, t, err := c.pool.Query(ctx, rewritten)
	if err != nil {
		return nil, nil, err
	}
	if t == nil || t.NumRows() != 1 {
		return nil, nil, core.Errorf(core.KindProtocol, "extract query returned no payload row")
	}
	cols, err := answerColumns(t, "extract", transform.ExtractAnswer)
	if err != nil {
		return nil, nil, err
	}
	payload := cols[0].Blobs[0]
	params, err := c.paramsOf(payload)
	if err != nil {
		return nil, nil, err
	}
	return &ExtractInfo{
		UDF:          udfName,
		TotalRows:    cols[1].Ints[0],
		SampleRows:   cols[2].Ints[0],
		PayloadBytes: len(payload),
		Compressed:   opts.Compress,
		Encrypted:    opts.Encrypt,
	}, params, nil
}

// paramsOf unpacks a sys_extract payload with the connection password and
// returns the pickle of its parameter dict: the bytes of the envelope's
// "params" entry, read out of it by script.PickledEntry, so that nothing of
// the envelope is decoded into values.
func (c *Client) paramsOf(payload []byte) ([]byte, error) {
	raw, err := transfer.Unpack(payload, c.Settings.Connection.Password)
	if err != nil {
		return nil, err
	}
	params, typeName, err := script.PickledEntry(raw, "params")
	if err != nil {
		return nil, err
	}
	if typeName != "dict" {
		return nil, core.Errorf(core.KindProtocol, "extract payload's params is a %s, not a dict", typeName)
	}
	return params, nil
}

// RunResult is the outcome of a local UDF run.
type RunResult struct {
	// Value is the UDF's return value.
	Value script.Value
	// Stdout captures print() output (the paper's print-debugging channel,
	// now visible locally).
	Stdout string
	// Steps counts interpreter statements executed.
	Steps int64
}

// RunLocal executes an imported UDF locally on its extracted inputs, routed
// by the UDF's language: PYTHON UDFs run their generated script (the
// Listing 2 flow — the prologue loads input.bin and calls the function),
// GO UDFs compile as the engine compiles them (engine.CompileUDF) with the
// function this client's RegisterGoUDF gave it and answer what the server
// answers (runLocalNative). Run ExtractInputs first.
func (c *Client) RunLocal(ctx context.Context, udfName string) (*RunResult, error) {
	info, src, err := c.Project.LoadUDF(udfName)
	if err != nil {
		return nil, err
	}
	if languageOf(info) != pyrt.Name {
		return c.runLocalNative(info, src)
	}
	r, err := c.newScriptRun(ctx, info, src)
	if err != nil {
		return nil, err
	}
	if err := r.run(); err != nil {
		return &RunResult{Stdout: r.stdout.String(), Steps: r.in.Steps()}, err
	}
	result, _ := r.globals.Get("result")
	if result == nil {
		result = script.None
	}
	return &RunResult{Value: result, Stdout: r.stdout.String(), Steps: r.in.Steps()}, nil
}

// scriptRun is an imported UDF's generated script ready to run locally:
// parsed, with an interpreter over the project's files whose print() output
// is kept, and a module scope that holds _conn. RunLocal runs it to the
// end; a DebugSession runs it under the debugger.
type scriptRun struct {
	mod     *script.Module
	in      *script.Interp
	globals *script.Env
	stdout  bytes.Buffer
	err     error // what run returned
}

func (c *Client) newScriptRun(ctx context.Context, info UDFInfo, src string) (*scriptRun, error) {
	mod, err := script.Parse(info.Name+".py", src)
	if err != nil {
		return nil, err
	}
	r := &scriptRun{mod: mod, in: script.NewInterp()}
	r.in.FS = c.Project.FS()
	r.in.Stdout = &r.stdout
	r.globals = r.in.NewGlobals()
	r.globals.Set("_conn", c.localConn(ctx, r.in))
	return r, nil
}

func (r *scriptRun) run() error {
	r.err = r.in.RunInEnv(r.mod, r.globals)
	return r.err
}

// languageOf normalizes a project UDF's language (historic metadata without
// one means PYTHON).
func languageOf(info UDFInfo) string { return udfrt.Canonical(info.Language) }

// runLocalNative calls a non-interpreted UDF on input.bin's parameters
// under the server's rules for a scalar function's call as a scalar and a
// table function's in FROM (callOnParams). A scalar function's value is
// its result column, a table function's a dict of its columns, each a list
// or, for one row, a bare value.
func (c *Client) runLocalNative(info UDFInfo, src string) (*RunResult, error) {
	def, call, err := c.compileNative(info, src)
	if err != nil {
		return nil, err
	}
	pickled, err := c.Project.FS().ReadFile(c.Project.InputPath(info.Name))
	if err != nil {
		return nil, core.Wrapf(core.KindConstraint, err,
			"no extracted inputs for %s (run extract first): %v", info.Name, err)
	}
	cols, err := c.callOnParams(def, call, pickled, info.IsTable)
	if err != nil {
		return nil, err
	}
	if !info.IsTable {
		return &RunResult{Value: pyrt.ColumnToValue(cols[0], cols[0].Len() != 1)}, nil
	}
	d := script.NewDict()
	for _, col := range cols {
		d.SetStr(col.Name, pyrt.ColumnToValue(col, col.Len() != 1))
	}
	return &RunResult{Value: d}, nil
}

// callOnParams calls an imported UDF on a parameter pickle, the dict
// extract answers (pyrt.Params), under the server's calling rules for a
// call in FROM or as a scalar (udfrt.Run): the columns are the ones the
// server's answer to that call holds, or its error.
func (c *Client) callOnParams(def *storage.FuncDef, call udfrt.Callable, pickled []byte, inFrom bool) ([]*storage.Column, error) {
	params, err := script.UnmarshalColumns(pickled)
	if err != nil {
		return nil, err
	}
	dict, ok := params.(*script.DictVal)
	if !ok {
		return nil, core.Errorf(core.KindProtocol, "the inputs of %s are not a parameter dict", def.Name)
	}
	in, err := pyrt.ParamsBatch(def.Params, dict)
	if err != nil {
		return nil, err
	}
	return udfrt.Run(def, in, inFrom, func(in *udfrt.Batch) (*udfrt.Batch, error) {
		return call.Call(&udfrt.Env{FS: c.Project.FS()}, in)
	})
}

// compileNative rebuilds a non-PYTHON UDF's catalog definition from the
// project metadata, gives it the function this client registered under the
// symbol its stub records (see RegisterGoUDF), and compiles it as the
// engine does (engine.CompileUDF).
func (c *Client) compileNative(info UDFInfo, src string) (*storage.FuncDef, udfrt.Callable, error) {
	def, err := info.funcDef()
	if err != nil {
		return nil, nil, err
	}
	def.Body = nativeSymbol(src)
	def.Native, _ = c.native.Load(strings.ToLower(gort.Symbol(def)))
	call, err := engine.CompileUDF(def)
	return def, call, err
}

// NewDebugSession builds an interactive debug session over an imported
// UDF's generated script (the "Debug" command of §2.1). The session runs
// the script RunLocal runs, on an interpreter built the same way. Only
// interpreter-backed (debuggable) runtimes support it.
func (c *Client) NewDebugSession(ctx context.Context, udfName string, stopOnEntry bool) (*DebugSession, error) {
	info, src, err := c.Project.LoadUDF(udfName)
	if err != nil {
		return nil, err
	}
	if !udfrt.LanguageDebuggable(info.Language) {
		return nil, core.Errorf(core.KindConstraint,
			"UDF %s runs on the %s runtime, which is not debuggable (only interpreter-backed runtimes support breakpoints)",
			info.Name, languageOf(info))
	}
	r, err := c.newScriptRun(ctx, info, src)
	if err != nil {
		return nil, err
	}
	sess := debug.New(debug.Config{StopOnEntry: stopOnEntry})
	return &DebugSession{Local: debug.NewLocal(sess, r.in, r.mod.Lines, r.run), script: r}, nil
}

// localConn builds the client-side _conn used during local runs and
// debugging (§2.3), bound to the interpreter in: the same object as the
// server's loopback (pyrt.NewConn) with one crucial difference: a query
// that calls an *imported* UDF runs that UDF locally — the shim extracts
// the nested UDF's input data from the server (reusing the §2.2 rewrite)
// and invokes the local, possibly edited, definition. Everything else is
// forwarded to the server.
func (c *Client) localConn(ctx context.Context, in *script.Interp) *script.ObjectVal {
	return pyrt.NewConn(localExecutor{c, ctx, in})
}

// localExecutor is the udfrt.Executor of a local run's _conn.
type localExecutor struct {
	c   *Client
	ctx context.Context
	in  *script.Interp
}

// Execute runs sql locally when it calls an imported UDF and on the server
// otherwise. A project whose metadata cannot be read fails the query:
// sending it to the server would run the server's UDF, not the local edit.
func (x localExecutor) Execute(sql string) (*storage.Table, error) {
	meta, err := x.c.Project.readMeta()
	if err != nil {
		return nil, err
	}
	names, err := transform.FindUDFCalls(sql, func(name string) bool {
		_, ok := meta[strings.ToLower(name)]
		return ok
	})
	if err == nil && len(names) > 0 {
		return x.runNested(sql, names[0])
	}
	_, t, err := x.c.pool.Query(x.ctx, sql)
	return t, err
}

// runNested answers a loopback query that calls an imported UDF: extract
// the nested UDF's inputs from the server and call the local definition on
// them under the server's calling rules (callOnParams), so its output is
// the table the server's answer would hold. transform.LocalCall refuses the
// queries whose answer is not the UDF's output as it is.
func (x localExecutor) runNested(sql, udfName string) (*storage.Table, error) {
	info, src, err := x.c.Project.LoadUDF(udfName)
	if err != nil {
		return nil, err
	}
	column, err := transform.LocalCall(sql, info.Name)
	if err != nil {
		return nil, err
	}
	def, call, err := x.callable(info, src)
	if err != nil {
		return nil, err
	}
	_, pickled, err := x.c.extract(x.ctx, sql, info.Name)
	if err != nil {
		return nil, err
	}
	cols, err := x.c.callOnParams(def, call, pickled, column == "")
	if err != nil {
		return nil, err
	}
	if column != "" {
		cols[0].Name = column
	}
	return &storage.Table{Name: def.Name, Cols: cols}, nil
}

// callable is how a local run calls an imported UDF by its language: a
// PYTHON one in the caller's interpreter, so that stepping into it keeps
// working; a GO one through engine.CompileUDF.
func (x localExecutor) callable(info UDFInfo, src string) (*storage.FuncDef, udfrt.Callable, error) {
	if languageOf(info) != pyrt.Name {
		return x.c.compileNative(info, src)
	}
	def, err := info.funcDef()
	return def, localPython{x, src, def}, err
}

// localPython calls the project file's (possibly edited) definition of an
// imported PYTHON UDF in its caller's interpreter, with _conn available to
// it.
type localPython struct {
	x   localExecutor
	src string
	def *storage.FuncDef
}

func (p localPython) Call(_ *udfrt.Env, in *udfrt.Batch) (*udfrt.Batch, error) {
	name := p.def.Name
	body, err := transform.ExtractBody(p.src, name)
	if err != nil {
		return nil, err
	}
	mod, err := script.Parse(name, transform.WrapFunction(name, p.def.Params.Names(), body))
	if err != nil {
		return nil, err
	}
	env, err := p.x.in.Run(mod)
	if err != nil {
		return nil, err
	}
	fn, ok := env.Get(name)
	if !ok {
		return nil, core.Errorf(core.KindRuntime, "nested UDF %s did not define itself", name)
	}
	// nested UDFs may themselves use _conn
	env.Set("_conn", p.x.c.localConn(p.x.ctx, p.x.in))
	out, err := p.x.in.Call(fn, pyrt.Args(in))
	if err != nil {
		return nil, err
	}
	return pyrt.Result(p.def, out)
}

// TraditionalCycle executes one iteration of the paper's *traditional*
// workflow for comparison (§1): re-CREATE the function on the server with
// a new body and re-run the debug query remotely. The efficiency bench E4
// pits this against the devUDF extract-once / iterate-locally loop.
func (c *Client) TraditionalCycle(ctx context.Context, info UDFInfo, body string) (*storage.Table, error) {
	sql, err := createFunctionSQL(info, body)
	if err != nil {
		return nil, err
	}
	if _, _, err := c.pool.Query(ctx, sql); err != nil {
		return nil, err
	}
	if c.Settings.DebugQuery == "" {
		return nil, core.Errorf(core.KindConstraint, "no debug query configured")
	}
	_, t, err := c.pool.Query(ctx, c.Settings.DebugQuery)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// EditBody replaces the function body in an imported UDF's script file,
// preserving the generated header and prologue — programmatic stand-in for
// the developer editing the file in the IDE.
func (c *Client) EditBody(udfName, newBody string) error {
	info, src, err := c.Project.LoadUDF(udfName)
	if err != nil {
		return err
	}
	oldWrapped := ""
	if body, err := transform.ExtractBody(src, info.Name); err == nil {
		oldWrapped = transform.WrapFunction(info.Name, info.ParamNames(), body)
	}
	newWrapped := transform.WrapFunction(info.Name, info.ParamNames(), newBody)
	if oldWrapped == "" || !strings.Contains(src, oldWrapped) {
		return core.Errorf(core.KindConstraint,
			"could not locate the function definition in %s", c.Project.ScriptPath(info.Name))
	}
	updated := strings.Replace(src, oldWrapped, newWrapped, 1)
	return c.Project.FS().WriteFile(c.Project.ScriptPath(info.Name), []byte(updated))
}

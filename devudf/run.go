package devudf

import (
	"bytes"
	"context"
	"strings"

	"repro/internal/core"
	"repro/internal/debug"
	"repro/internal/engine"
	"repro/internal/pickle"
	"repro/internal/script"
	"repro/internal/storage"
	"repro/internal/transform"
	"repro/internal/udfrt"
	"repro/internal/udfrt/pyrt"
)

// ExtractInfo summarizes one input extraction (§2.2): how much data the
// UDF's inputs hold, how much was actually shipped after sampling, and the
// payload size after compression/encryption.
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
// the project's input.bin (paper §2.2). The target UDF must already be
// imported.
func (c *Client) ExtractInputs(ctx context.Context, udfName string) (*ExtractInfo, error) {
	if c.Settings.DebugQuery == "" {
		return nil, core.Errorf(core.KindConstraint,
			"no debug query configured in settings (the SQL query which executes the to-be-debugged UDF)")
	}
	info, _, err := c.Project.LoadUDF(udfName)
	if err != nil {
		return nil, err
	}
	t, params, err := c.extract(ctx, c.Settings.DebugQuery, info.Name)
	if err != nil {
		return nil, err
	}
	if err := pickle.DumpFile(c.Project.FS(), c.Project.InputPath(info.Name), params); err != nil {
		return nil, err
	}
	col := func(name string) *storage.Column { v, _ := t.Column(name); return v }
	return &ExtractInfo{
		UDF:          info.Name,
		TotalRows:    col("total_rows").Ints[0],
		SampleRows:   col("sample_rows").Ints[0],
		PayloadBytes: len(col("payload").Blobs[0]),
		Compressed:   col("compressed").Bools[0],
		Encrypted:    col("encrypted").Bools[0],
	}, nil
}

// extract runs sql rewritten so that the server extracts the inputs of
// its call of udfName (§2.2), and returns the one-row answer and the
// parameter dict its payload unpacks to.
func (c *Client) extract(ctx context.Context, sql, udfName string) (*storage.Table, *script.DictVal, error) {
	rewritten, err := transform.RewriteToExtract(sql, udfName, c.Settings.Transfer)
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
	payload, err := t.Column("payload")
	if err != nil {
		return nil, nil, err
	}
	_, params, _, _, err := engine.DecodeExtractPayload(payload.Blobs[0], c.Settings.Connection.Password)
	return t, params, err
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
// native UDFs dispatch through the udfrt runtime registry against the
// locally registered implementation. Run ExtractInputs first.
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

// runLocalNative executes a non-interpreted UDF on its extracted inputs
// the way the generated script calls a PYTHON one: compiled against the
// locally registered implementation, called on input.bin's parameters.
func (c *Client) runLocalNative(info UDFInfo, src string) (*RunResult, error) {
	def, call, err := compileNative(info, src)
	if err != nil {
		return nil, err
	}
	v, err := pickle.LoadFileColumns(c.Project.FS(), c.Project.InputPath(info.Name))
	if err != nil {
		return nil, core.Wrapf(core.KindConstraint, err,
			"no extracted inputs for %s (run extract first): %v", info.Name, err)
	}
	inputs, ok := v.(*script.DictVal)
	if !ok {
		return nil, core.Errorf(core.KindProtocol, "input file for %s is not a parameter dict", info.Name)
	}
	in, err := pyrt.ParamsBatch(def.Params, inputs)
	if err != nil {
		return nil, err
	}
	out, err := call.Call(&udfrt.Env{FS: c.Project.FS()}, in)
	if err != nil {
		return nil, err
	}
	return &RunResult{Value: batchToValue(info, out)}, nil
}

// compileNative rebuilds a non-PYTHON UDF's catalog definition from the
// project metadata and compiles it through the runtime registry against
// the symbol its stub records. The implementation must be registered in
// this process (see RegisterGoUDF).
func compileNative(info UDFInfo, src string) (*storage.FuncDef, udfrt.Callable, error) {
	rt, err := udfrt.Lookup(info.Language)
	if err != nil {
		return nil, nil, err
	}
	def, err := info.funcDef()
	if err != nil {
		return nil, nil, err
	}
	def.Body = nativeSymbol(src)
	call, err := rt.Compile(def)
	return def, call, err
}

// batchToValue shapes a native result batch the way the interpreter-based
// flow would see it: a dict of columns for table functions, a bare list (or
// scalar, for one-row results) for scalar functions.
func batchToValue(info UDFInfo, out *udfrt.Batch) script.Value {
	if len(out.Cols) == 1 && !info.IsTable {
		col := out.Cols[0]
		return pyrt.ColumnToValue(col, col.Len() != 1)
	}
	d := script.NewDict()
	for _, col := range out.Cols {
		d.SetStr(col.Name, pyrt.ColumnToValue(col, col.Len() != 1))
	}
	return d
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

func (x localExecutor) Execute(sql string) (*storage.Table, error) {
	names, err := transform.FindUDFCalls(sql, x.c.Project.Has)
	if err == nil && len(names) > 0 {
		return x.runNested(sql, names[0])
	}
	_, t, err := x.c.pool.Query(x.ctx, sql)
	return t, err
}

// runNested answers a loopback query that calls an imported UDF: extract
// the nested UDF's inputs from the server and call the local definition on
// them under the server's calling rules (udfrt.Run), so its output is the
// table the server's answer would hold. transform.LocalCall refuses the
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
	_, params, err := x.c.extract(x.ctx, sql, info.Name)
	if err != nil {
		return nil, err
	}
	in, err := pyrt.ParamsBatch(def.Params, params)
	if err != nil {
		return nil, err
	}
	cols, err := udfrt.Run(def, in, column == "", func(in *udfrt.Batch) (*udfrt.Batch, error) {
		return call.Call(&udfrt.Env{FS: x.c.Project.FS()}, in)
	})
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
// working; any other through the runtime registry.
func (x localExecutor) callable(info UDFInfo, src string) (*storage.FuncDef, udfrt.Callable, error) {
	if languageOf(info) != pyrt.Name {
		return compileNative(info, src)
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

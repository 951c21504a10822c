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
	rewritten, err := transform.RewriteToExtract(c.Settings.DebugQuery, info.Name, c.Settings.Transfer)
	if err != nil {
		return nil, err
	}
	_, t, err := c.pool.Query(ctx, rewritten)
	if err != nil {
		return nil, err
	}
	if t == nil || t.NumRows() != 1 {
		return nil, core.Errorf(core.KindProtocol, "extract query returned no payload row")
	}
	payloadCol, err := t.Column("payload")
	if err != nil {
		return nil, err
	}
	packed := payloadCol.Blobs[0]
	_, params, total, sample, err := engine.DecodeExtractPayload(packed, c.Settings.Connection.Password)
	if err != nil {
		return nil, err
	}
	if err := pickle.DumpFile(c.Project.FS(), c.Project.InputPath(info.Name), params); err != nil {
		return nil, err
	}
	compressed, _ := t.Column("compressed")
	encrypted, _ := t.Column("encrypted")
	return &ExtractInfo{
		UDF:          info.Name,
		TotalRows:    total,
		SampleRows:   sample,
		PayloadBytes: len(packed),
		Compressed:   compressed.Bools[0],
		Encrypted:    encrypted.Bools[0],
	}, nil
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

// runLocalNative executes a non-interpreted UDF on its extracted inputs:
// rebuild the catalog definition from the project metadata, compile it
// through the runtime registry (the implementation must be registered in
// this process — see RegisterGoUDF), shape input.bin into a batch, call.
func (c *Client) runLocalNative(info UDFInfo, src string) (*RunResult, error) {
	rt, err := udfrt.Lookup(info.Language)
	if err != nil {
		return nil, err
	}
	def, err := info.funcDef()
	if err != nil {
		return nil, err
	}
	def.Body = nativeSymbol(src)
	call, err := rt.Compile(def)
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
	cols := make([]*storage.Column, len(def.Params))
	isCol := make([]bool, len(def.Params))
	for i, p := range def.Params {
		pv, ok := inputs.GetStr(p.Name)
		if !ok {
			return nil, core.Errorf(core.KindConstraint, "extracted inputs are missing parameter %q", p.Name)
		}
		col, err := pyrt.ValueToColumn(pv, p.Name, p.Type)
		if err != nil {
			return nil, err
		}
		cols[i] = col
		switch pv.(type) {
		case *script.ListVal, *script.TupleVal:
			isCol[i] = true
		}
	}
	env := &udfrt.Env{FS: c.Project.FS()}
	out, err := call.Call(env, udfrt.NewBatch(cols, isCol))
	if err != nil {
		return nil, err
	}
	return &RunResult{Value: batchToValue(info, out)}, nil
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
		return x.c.runNestedLocally(x.ctx, x.in, sql, names[0])
	}
	_, t, err := x.c.pool.Query(x.ctx, sql)
	return t, err
}

// runNestedLocally answers a loopback query that calls an imported UDF:
// extract the nested UDF's inputs from the server, call the local
// definition on in, and shape its output into the table the server's
// answer would hold. transform.LocalCall refuses the queries whose answer
// is not the UDF's output as it is.
func (c *Client) runNestedLocally(ctx context.Context, in *script.Interp, sql, udfName string) (*storage.Table, error) {
	info, src, err := c.Project.LoadUDF(udfName)
	if err != nil {
		return nil, err
	}
	column, err := transform.LocalCall(sql, info.Name)
	if err != nil {
		return nil, err
	}
	def, err := info.funcDef()
	if err != nil {
		return nil, err
	}
	if column != "" && def.IsTable {
		return nil, core.Errorf(core.KindType, "%s is a table function; use it in FROM", def.Name)
	}
	rewritten, err := transform.RewriteToExtract(sql, info.Name, c.Settings.Transfer)
	if err != nil {
		return nil, err
	}
	_, t, err := c.pool.Query(ctx, rewritten)
	if err != nil {
		return nil, err
	}
	payloadCol, err := t.Column("payload")
	if err != nil || t.NumRows() != 1 {
		return nil, core.Errorf(core.KindProtocol, "nested extract returned no payload")
	}
	_, params, _, _, err := engine.DecodeExtractPayload(payloadCol.Blobs[0], c.Settings.Connection.Password)
	if err != nil {
		return nil, err
	}
	callArgs := make([]script.Value, len(info.Params))
	for i, p := range info.Params {
		v, ok := params.GetStr(p.Name)
		if !ok {
			return nil, core.Errorf(core.KindProtocol,
				"nested extract is missing parameter %q", p.Name)
		}
		callArgs[i] = v
	}
	rows, columnar := inputRows(callArgs)
	if column != "" && columnar && rows == 0 {
		// The server calls no scalar UDF on no rows.
		return &storage.Table{Cols: []*storage.Column{storage.NewColumn(column, def.Returns[0].Type)}}, nil
	}
	out, err := c.callLocal(ctx, in, info, src, callArgs)
	if err != nil {
		return nil, err
	}
	b, err := pyrt.Result(def, out)
	if err != nil {
		return nil, err
	}
	res := &storage.Table{Name: def.Name, Cols: b.Cols}
	if column != "" {
		col := b.Cols[0]
		if rows > 0 && col.Len() != rows && col.Len() != 1 {
			return nil, core.Errorf(core.KindConstraint,
				"UDF returned %d rows for %d input rows", col.Len(), rows)
		}
		col.Name = column
	}
	if err := res.Broadcast(); err != nil {
		return nil, err
	}
	return res, nil
}

// inputRows is the row count the server gives a scalar UDF call on args,
// and checks its result against: the longest list's length, else one row
// of constants (none without arguments).
func inputRows(args []script.Value) (rows int, columnar bool) {
	for _, v := range args {
		if l, ok := v.(*script.ListVal); ok {
			rows, columnar = max(rows, l.Len()), true
		}
	}
	if !columnar {
		rows = min(len(args), 1)
	}
	return rows, columnar
}

// callLocal calls the project file's (possibly edited) definition of an
// imported UDF on in, with _conn available to it.
func (c *Client) callLocal(ctx context.Context, in *script.Interp, info UDFInfo, src string, args []script.Value) (script.Value, error) {
	body, err := transform.ExtractBody(src, info.Name)
	if err != nil {
		return nil, err
	}
	mod, err := script.Parse(info.Name, transform.WrapFunction(info.Name, info.ParamNames(), body))
	if err != nil {
		return nil, err
	}
	env, err := in.Run(mod)
	if err != nil {
		return nil, err
	}
	fn, ok := env.Get(info.Name)
	if !ok {
		return nil, core.Errorf(core.KindRuntime, "nested UDF %s did not define itself", info.Name)
	}
	// nested UDFs may themselves use _conn
	env.Set("_conn", c.localConn(ctx, in))
	return in.Call(fn, args)
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

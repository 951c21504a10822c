package devudf

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/transform"
	"repro/internal/udfrt/gort"
	"repro/internal/udfrt/pyrt"
	"repro/internal/wire"
)

// Client is a plugin session: a pooled set of authenticated wire
// connections plus the project workspace. It implements the import/export
// windows of Fig. 3 and the local run/debug workflow of §2.1–2.3. Every
// server-touching method takes a context that cancels the underlying wire
// operation.
type Client struct {
	Settings Settings
	Project  *Project

	pool *wire.Pool
	// native maps a lower-cased symbol to the Go function RegisterGoUDF
	// gave this client: what its local runs of LANGUAGE GO UDFs call.
	native sync.Map
}

// RegisterGoUDF gives this client fn under name: its local runs of
// imported LANGUAGE GO UDFs bound to name call it. It mirrors the server
// embedder's DB.RegisterGoUDF, whose functions do not reach a client, nor
// this client's a server. A signature the GO runtime cannot call is a type
// error; argument slices are read-only.
func (c *Client) RegisterGoUDF(name string, fn any) error {
	if _, err := gort.InferDef(name, fn, false); err != nil {
		return err
	}
	c.native.Store(strings.ToLower(name), fn)
	return nil
}

// Open dials the database from the settings and opens the project
// workspace. The returned client is backed by a bounded connection pool;
// connectivity and credentials are verified eagerly with one checkout.
// ctx must be non-nil.
func Open(ctx context.Context, settings Settings, opts ...Option) (*Client, error) {
	cfg := clientConfig{fs: core.OSFS{}, poolSize: 4}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.poolSize < 1 {
		cfg.poolSize = 1
	}
	pool := wire.NewPool(settings.Connection, cfg.poolSize)
	wc, err := pool.Get(ctx)
	if err != nil {
		pool.Close()
		return nil, err
	}
	pool.Put(wc)
	return &Client{
		Settings: settings,
		Project:  OpenProject(cfg.fs, settings.ProjectDir),
		pool:     pool,
	}, nil
}

// Close closes the connection pool.
func (c *Client) Close() error { return c.pool.Close() }

// Pool exposes the underlying connection pool (stats for the benches,
// direct checkouts for streaming consumers).
func (c *Client) Pool() *wire.Pool { return c.pool }

// QueryResult is the outcome of one statement: the server's status tag
// plus the result table (nil for statements without one).
type QueryResult struct {
	Tag   string
	Table *storage.Table
}

// Query runs SQL on the server. With bind arguments it prepares the
// statement, executes it once and closes it, all on one checked-out
// connection, so nothing stays open on the server once Query returns.
func (c *Client) Query(ctx context.Context, sql string, args ...any) (QueryResult, error) {
	if len(args) == 0 {
		tag, tbl, err := c.pool.Query(ctx, sql)
		return QueryResult{Tag: tag, Table: tbl}, err
	}
	wc, err := c.pool.Get(ctx)
	if err != nil {
		return QueryResult{}, err
	}
	defer c.pool.Put(wc)
	st, err := wc.Prepare(ctx, sql)
	if err != nil {
		return QueryResult{}, err
	}
	tag, tbl, err := st.Query(ctx, args...)
	if cerr := st.Close(ctx); err == nil && cerr != nil {
		return QueryResult{}, cerr
	}
	return QueryResult{Tag: tag, Table: tbl}, err
}

// serverCatalog is one consistent snapshot of the server's UDF meta
// tables: the Fig. 3a listing plus every function body, fetched with two
// queries total so imports never re-read the catalog per UDF.
type serverCatalog struct {
	infos  []UDFInfo
	bodies map[string]string // lower(name) → function body
}

func (sc *serverCatalog) find(name string) *UDFInfo {
	for i := range sc.infos {
		if strings.EqualFold(sc.infos[i].Name, name) {
			return &sc.infos[i]
		}
	}
	return nil
}

// has is the isUDF predicate for query analysis; bodies is already keyed
// by lowercase name, so this stays O(1) per identifier probed.
func (sc *serverCatalog) has(name string) bool {
	_, ok := sc.bodies[strings.ToLower(name)]
	return ok
}

// functionsAnswer and functionArgsAnswer are the columns listServerUDFs
// reads from its two meta queries.
var (
	functionsAnswer = []storage.ColumnDef{
		{Name: "id", Type: storage.TInt},
		{Name: "name", Type: storage.TStr},
		{Name: "func", Type: storage.TStr},
		{Name: "language", Type: storage.TStr},
		{Name: "is_table", Type: storage.TBool},
	}
	functionArgsAnswer = []storage.ColumnDef{
		{Name: "function_id", Type: storage.TInt},
		{Name: "name", Type: storage.TStr},
		{Name: "type", Type: storage.TStr},
		{Name: "is_result", Type: storage.TBool},
	}
)

// listServerUDFs pulls the whole UDF catalog in two meta queries.
func (c *Client) listServerUDFs(ctx context.Context) (*serverCatalog, error) {
	_, funcs, err := c.pool.Query(ctx, `SELECT id, name, func, language, is_table FROM sys.functions ORDER BY name`)
	if err != nil {
		return nil, err
	}
	_, args, err := c.pool.Query(ctx, `SELECT function_id, name, type, number, is_result FROM sys.function_args ORDER BY function_id, number`)
	if err != nil {
		return nil, err
	}
	fc, err := answerColumns(funcs, "sys.functions", functionsAnswer)
	if err != nil {
		return nil, err
	}
	ac, err := answerColumns(args, "sys.function_args", functionArgsAnswer)
	if err != nil {
		return nil, err
	}
	type argRow struct {
		name     string
		typ      string
		isResult bool
	}
	argsByID := map[int64][]argRow{}
	fid, an, at, ir := ac[0], ac[1], ac[2], ac[3]
	for i := 0; i < args.NumRows(); i++ {
		argsByID[fid.Ints[i]] = append(argsByID[fid.Ints[i]],
			argRow{an.Strs[i], at.Strs[i], ir.Bools[i]})
	}
	cat := &serverCatalog{bodies: map[string]string{}}
	id, name, body, lang, isTable := fc[0], fc[1], fc[2], fc[3], fc[4]
	for i := 0; i < funcs.NumRows(); i++ {
		info := UDFInfo{
			Name:     name.Strs[i],
			Language: lang.Strs[i],
			IsTable:  isTable.Bools[i],
		}
		for _, a := range argsByID[id.Ints[i]] {
			pi := ParamInfo{Name: a.name, Type: a.typ}
			if a.isResult {
				info.Returns = append(info.Returns, pi)
			} else {
				info.Params = append(info.Params, pi)
			}
		}
		cat.infos = append(cat.infos, info)
		cat.bodies[strings.ToLower(info.Name)] = body.Strs[i]
	}
	return cat, nil
}

// answerColumns looks want's columns up by name in the server's answer t
// to the query named what, in want's order. A missing answer, or a column
// that is missing, of another type or of another length, is a protocol
// error naming it.
func answerColumns(t *storage.Table, what string, want []storage.ColumnDef) ([]*storage.Column, error) {
	if t == nil {
		return nil, core.Errorf(core.KindProtocol, "%s answer has no result table", what)
	}
	cols := make([]*storage.Column, len(want))
	for i, w := range want {
		col, err := t.Column(w.Name)
		if err != nil || col.Typ != w.Type || col.Len() != t.NumRows() {
			return nil, core.Errorf(core.KindProtocol,
				"%s answer has no %s column %q", what, w.Type, w.Name)
		}
		cols[i] = col
	}
	return cols, nil
}

// ListServerUDFs queries the server's meta tables for stored UDFs — the
// population of the "Import UDFs" window (Fig. 3a).
func (c *Client) ListServerUDFs(ctx context.Context) ([]UDFInfo, error) {
	cat, err := c.listServerUDFs(ctx)
	if err != nil {
		return nil, err
	}
	return cat.infos, nil
}

// fetchUDF resolves one UDF's metadata and body from a catalog snapshot.
func fetchUDF(cat *serverCatalog, name string) (UDFInfo, string, error) {
	info := cat.find(name)
	if info == nil {
		return UDFInfo{}, "", core.Errorf(core.KindName, "server has no UDF %q", name)
	}
	body, ok := cat.bodies[strings.ToLower(info.Name)]
	if !ok {
		return UDFInfo{}, "", core.Errorf(core.KindProtocol, "unexpected meta result for %q", name)
	}
	return *info, body, nil
}

// ImportUDFs imports the named UDFs (Fig. 3a): it extracts each body from
// a single snapshot of the server's meta tables, applies the Listing 2
// code transformation (header synthesis + input-loading prologue) and
// writes the runnable script into the project. Nested UDFs reachable
// through loopback queries (§2.3) are imported transitively. It returns
// every imported name. A UDF it cannot import keeps none of the others out:
// the error, of the first refusal's kind, names each UDF not imported.
func (c *Client) ImportUDFs(ctx context.Context, names ...string) ([]string, error) {
	cat, err := c.listServerUDFs(ctx)
	if err != nil {
		return nil, err
	}
	isUDF := func(name string) bool { return cat.has(name) }
	var imported []string
	var refused []*core.Error // one per UDF not imported, each naming it
	seen := map[string]bool{}
	queue := append([]string(nil), names...)
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		key := strings.ToLower(name)
		if seen[key] {
			continue
		}
		seen[key] = true
		info, body, err := fetchUDF(cat, name)
		if err != nil {
			refused = append(refused, core.Wrapf(core.KindOf(err), err, "%s: %v", name, err))
			continue
		}
		var src string
		if languageOf(info) == pyrt.Name {
			src = transform.BuildLocalScript(transform.LocalScriptInfo{
				Name:      info.Name,
				Params:    info.ParamNames(),
				Body:      body,
				InputFile: "./" + c.Project.InputPath(info.Name),
			})
		} else {
			// Native UDFs carry no editable source; the stub records the
			// signature and the bound symbol so extract/run/export still work.
			src = nativeStub(info, body)
		}
		if err := c.Project.SaveUDF(info, src); err != nil {
			refused = append(refused, core.Wrapf(core.KindOf(err), err, "%s: %v", name, err))
			continue
		}
		imported = append(imported, info.Name)
		// §2.3: follow loopback queries to nested UDFs
		queue = append(queue, transform.FindLoopbackUDFs(body, isUDF)...)
	}
	sort.Strings(imported)
	if len(refused) == 0 {
		return imported, nil
	}
	why := make([]string, len(refused))
	for i, e := range refused {
		why[i] = e.Msg
	}
	return imported, core.Wrapf(refused[0].Kind, refused[0], "not imported: %s", strings.Join(why, "; "))
}

// nativeSymbolMarker tags the stub line carrying a native UDF's registered
// symbol so exports can round-trip it.
const nativeSymbolMarker = "# native-symbol:"

// nativeStub is the project file written for UDFs whose implementation is
// native code (LANGUAGE GO): there is no source to edit, but the stub keeps
// the import visible and records the symbol body binds.
func nativeStub(info UDFInfo, body string) string {
	symbol := gort.Symbol(&storage.FuncDef{Name: info.Name, Body: body})
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s is a native %s UDF; its implementation is compiled into the\n",
		info.Name, languageOf(info))
	sb.WriteString("# host binary and cannot be edited here. Register it with this client's\n")
	fmt.Fprintf(&sb, "# RegisterGoUDF(%q, fn) to run it on extracted inputs.\n", symbol)
	fmt.Fprintf(&sb, "%s %s\n", nativeSymbolMarker, symbol)
	return sb.String()
}

// nativeSymbol recovers the symbol recorded by nativeStub ("" when absent,
// which binds to the UDF's own name).
func nativeSymbol(src string) string {
	for _, ln := range strings.Split(src, "\n") {
		if rest, ok := strings.CutPrefix(ln, nativeSymbolMarker); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// ExportUDFs reverses the import transformation (Fig. 3b): it extracts the
// (possibly edited) function body from each project file and commits it
// back to the server with CREATE OR REPLACE FUNCTION. Native UDFs export
// their recorded symbol as the body — the implementation itself lives in
// the server binary.
func (c *Client) ExportUDFs(ctx context.Context, names ...string) error {
	for _, name := range names {
		info, src, err := c.Project.LoadUDF(name)
		if err != nil {
			return err
		}
		var body string
		if languageOf(info) == pyrt.Name {
			body, err = transform.ExtractBody(src, info.Name)
			if err != nil {
				return err
			}
		} else {
			body = nativeSymbol(src)
		}
		sql, err := createFunctionSQL(info, body)
		if err != nil {
			return err
		}
		if _, _, err := c.pool.Query(ctx, sql); err != nil {
			// Server errors arrive already kinded (syntax, overload,
			// cancellation); preserve that so retry/cancel classification
			// survives. Only unkinded local failures become KindRuntime.
			kind := core.KindOf(err)
			if kind == core.KindUnknown {
				kind = core.KindRuntime
			}
			return core.Wrapf(kind, err, "export %s: %v", info.Name, err)
		}
	}
	return nil
}

// createFunctionSQL renders CREATE OR REPLACE FUNCTION through the SQL AST
// from the definition the project metadata rebuilds, with body as its body.
func createFunctionSQL(info UDFInfo, body string) (string, error) {
	def, err := info.funcDef()
	if err != nil {
		return "", err
	}
	return sqlparse.Format(&sqlparse.CreateFunction{
		Name: def.Name, Params: def.Params, Returns: def.Returns, IsTable: def.IsTable,
		Language: def.Language, Body: body, OrReplace: true,
	}), nil
}

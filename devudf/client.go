package devudf

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/transform"
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
// statement, executes it once and closes it; a caller repeating one
// parameterized statement holds a Prepare'd Stmt instead.
func (c *Client) Query(ctx context.Context, sql string, args ...any) (QueryResult, error) {
	if len(args) == 0 {
		tag, tbl, err := c.pool.Query(ctx, sql)
		return QueryResult{Tag: tag, Table: tbl}, err
	}
	ps, err := c.pool.Prepare(ctx, sql)
	if err != nil {
		return QueryResult{}, err
	}
	defer ps.Close()
	tag, tbl, err := ps.Query(ctx, args...)
	return QueryResult{Tag: tag, Table: tbl}, err
}

// Prepare compiles sql once for repeated execution with bind arguments.
// The statement is pool-aware: it transparently re-prepares on whichever
// healthy connection the pool hands back.
func (c *Client) Prepare(ctx context.Context, sql string) (*Stmt, error) {
	ps, err := c.pool.Prepare(ctx, sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{ps: ps}, nil
}

// Stmt is a prepared statement over the client's connection pool.
type Stmt struct{ ps *wire.PoolStmt }

// NumParams reports how many bind arguments each execution needs.
func (s *Stmt) NumParams() int { return s.ps.NumParams() }

// Query executes the statement with one set of bind arguments.
func (s *Stmt) Query(ctx context.Context, args ...any) (QueryResult, error) {
	tag, tbl, err := s.ps.Query(ctx, args...)
	return QueryResult{Tag: tag, Table: tbl}, err
}

// Exec executes the statement for its side effects, returning the tag.
func (s *Stmt) Exec(ctx context.Context, args ...any) (string, error) {
	return s.ps.Exec(ctx, args...)
}

// Close releases the statement.
func (s *Stmt) Close() error { return s.ps.Close() }

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
	type argRow struct {
		name     string
		typ      string
		isResult bool
	}
	argsByID := map[int64][]argRow{}
	if args != nil {
		fid, _ := args.Column("function_id")
		an, _ := args.Column("name")
		at, _ := args.Column("type")
		ir, _ := args.Column("is_result")
		for i := 0; i < args.NumRows(); i++ {
			argsByID[fid.Ints[i]] = append(argsByID[fid.Ints[i]],
				argRow{an.Strs[i], at.Strs[i], ir.Bools[i]})
		}
	}
	cat := &serverCatalog{bodies: map[string]string{}}
	if funcs == nil {
		return cat, nil
	}
	id, _ := funcs.Column("id")
	name, _ := funcs.Column("name")
	body, _ := funcs.Column("func")
	lang, _ := funcs.Column("language")
	isTable, _ := funcs.Column("is_table")
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
// every imported name.
func (c *Client) ImportUDFs(ctx context.Context, names ...string) ([]string, error) {
	cat, err := c.listServerUDFs(ctx)
	if err != nil {
		return nil, err
	}
	isUDF := func(name string) bool { return cat.has(name) }
	var imported []string
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
			return imported, err
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
			return imported, err
		}
		imported = append(imported, info.Name)
		// §2.3: follow loopback queries to nested UDFs
		queue = append(queue, transform.FindLoopbackUDFs(body, isUDF)...)
	}
	sort.Strings(imported)
	return imported, nil
}

// nativeSymbolMarker tags the stub line carrying a native UDF's registered
// symbol so exports can round-trip it.
const nativeSymbolMarker = "# native-symbol:"

// nativeStub is the project file written for UDFs whose implementation is
// native code (LANGUAGE GO): there is no source to edit, but the stub keeps
// the import visible and records the bound symbol.
func nativeStub(info UDFInfo, symbol string) string {
	symbol = strings.TrimSpace(symbol)
	if symbol == "" {
		symbol = info.Name
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s is a native %s UDF; its implementation is compiled into the\n",
		info.Name, languageOf(info))
	sb.WriteString("# host binary and cannot be edited here. Register it in this process with\n")
	fmt.Fprintf(&sb, "# devudf.RegisterGoUDF(%q, fn) to run it on extracted inputs.\n", symbol)
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

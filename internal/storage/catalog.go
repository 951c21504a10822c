package storage

import (
	"sort"
	"strings"

	"repro/internal/core"
)

// FuncDef is a user-defined function stored in the catalog. Body holds the
// *source code* of the function body only — exactly how MonetDB stores
// Python UDFs (paper Listing 1) and the reason devUDF must re-synthesize a
// header on import.
type FuncDef struct {
	ID       int
	Name     string
	Params   Schema // parameter names and declared types
	Language string // "PYTHON" in this reproduction
	Body     string // function body source, without header
	// Returns describes the output: a single column for scalar functions,
	// multiple for table functions.
	Returns Schema
	// IsTable marks RETURNS TABLE(...) functions.
	IsTable bool
}

// Catalog is the database catalog: tables and UDFs. It is not synchronized;
// the engine guards it with the database lock.
type Catalog struct {
	tables map[string]*Table
	funcs  map[string]*FuncDef
	nextID int
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: map[string]*Table{}, funcs: map[string]*FuncDef{}, nextID: 1}
}

func key(name string) string { return strings.ToLower(name) }

// CreateTable registers a new table.
func (c *Catalog) CreateTable(t *Table) error {
	k := key(t.Name)
	if _, ok := c.tables[k]; ok {
		return core.Errorf(core.KindConstraint, "table %q already exists", t.Name)
	}
	c.tables[k] = t
	return nil
}

// DropTable removes a table.
func (c *Catalog) DropTable(name string) error {
	k := key(name)
	if _, ok := c.tables[k]; !ok {
		return core.Errorf(core.KindName, "no such table: %s", name)
	}
	delete(c.tables, k)
	return nil
}

// Table resolves a table by name, including the sys.* meta tables.
func (c *Catalog) Table(name string) (*Table, error) {
	if t, ok := c.tables[key(name)]; ok {
		return t, nil
	}
	if mt, ok := c.metaTable(name); ok {
		return mt, nil
	}
	return nil, core.Errorf(core.KindName, "no such table: %s", name)
}

// TableNames lists user tables sorted by name.
func (c *Catalog) TableNames() []string {
	names := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// InstallFunction registers a UDF under the ID it carries; replace allows
// CREATE OR REPLACE. The engine picks the ID (see NextID); restore and
// replay keep the logged one, so sys.functions IDs survive a restart. The
// ID counter advances past f.ID so no later ID collides with it.
func (c *Catalog) InstallFunction(f *FuncDef, replace bool) error {
	k := key(f.Name)
	if _, ok := c.funcs[k]; ok && !replace {
		return core.Errorf(core.KindConstraint, "function %q already exists", f.Name)
	}
	c.funcs[k] = f
	if f.ID >= c.nextID {
		c.nextID = f.ID + 1
	}
	return nil
}

// NextID returns the next function ID the catalog would assign.
func (c *Catalog) NextID() int { return c.nextID }

// SetNextID forces the function ID counter, clamped so it never moves
// backwards past an installed definition's ID.
func (c *Catalog) SetNextID(n int) {
	if n > c.nextID {
		c.nextID = n
	}
}

// DropFunction removes a UDF.
func (c *Catalog) DropFunction(name string) error {
	k := key(name)
	if _, ok := c.funcs[k]; !ok {
		return core.Errorf(core.KindName, "no such function: %s", name)
	}
	delete(c.funcs, k)
	return nil
}

// Function resolves a UDF by name.
func (c *Catalog) Function(name string) (*FuncDef, error) {
	if f, ok := c.funcs[key(name)]; ok {
		return f, nil
	}
	return nil, core.Errorf(core.KindName, "no such function: %s", name)
}

// HasFunction reports whether a UDF exists.
func (c *Catalog) HasFunction(name string) bool {
	_, ok := c.funcs[key(name)]
	return ok
}

// Functions lists UDFs sorted by name.
func (c *Catalog) Functions() []*FuncDef {
	out := make([]*FuncDef, 0, len(c.funcs))
	for _, f := range c.funcs {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// metaTable materializes the sys.* meta tables on demand. devUDF's import
// path reads UDF source through these, mirroring MonetDB's sys.functions.
func (c *Catalog) metaTable(name string) (*Table, bool) {
	switch key(name) {
	case "sys.functions":
		t := NewTable("sys.functions", Schema{
			{Name: "id", Type: TInt},
			{Name: "name", Type: TStr},
			{Name: "func", Type: TStr},
			{Name: "language", Type: TStr},
			{Name: "is_table", Type: TBool},
		})
		for _, f := range c.Functions() {
			_ = t.AppendRow([]any{int64(f.ID), f.Name, f.Body, f.Language, f.IsTable})
		}
		return t, true
	case "sys.function_args":
		t := NewTable("sys.function_args", Schema{
			{Name: "function_id", Type: TInt},
			{Name: "name", Type: TStr},
			{Name: "type", Type: TStr},
			{Name: "number", Type: TInt},
			{Name: "is_result", Type: TBool},
		})
		for _, f := range c.Functions() {
			for i, p := range f.Params {
				_ = t.AppendRow([]any{int64(f.ID), p.Name, p.Type.String(), int64(i), false})
			}
			for i, r := range f.Returns {
				_ = t.AppendRow([]any{int64(f.ID), r.Name, r.Type.String(), int64(i), true})
			}
		}
		return t, true
	case "sys.tables":
		t := NewTable("sys.tables", Schema{
			{Name: "name", Type: TStr},
			{Name: "rows", Type: TInt},
		})
		for _, name := range c.TableNames() {
			tbl := c.tables[key(name)]
			_ = t.AppendRow([]any{tbl.Name, int64(tbl.NumRows())})
		}
		return t, true
	case "sys.columns":
		t := NewTable("sys.columns", Schema{
			{Name: "table_name", Type: TStr},
			{Name: "name", Type: TStr},
			{Name: "type", Type: TStr},
			{Name: "number", Type: TInt},
		})
		for _, name := range c.TableNames() {
			tbl := c.tables[key(name)]
			for i, col := range tbl.Cols {
				_ = t.AppendRow([]any{tbl.Name, col.Name, col.Typ.String(), int64(i)})
			}
		}
		return t, true
	default:
		return nil, false
	}
}

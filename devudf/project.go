package devudf

import (
	"encoding/json"
	"regexp"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/storage"
)

// ParamInfo is one named, SQL-typed parameter or result column.
type ParamInfo struct {
	Name string `json:"name"`
	Type string `json:"type"` // SQL type name (INTEGER, DOUBLE, ...)
}

// UDFInfo is the signature metadata of one UDF. The project keeps it in a
// sidecar file because the .py file carries only names, and exporting back
// to CREATE FUNCTION needs the declared SQL types.
type UDFInfo struct {
	Name     string      `json:"name"`
	Language string      `json:"language"`
	IsTable  bool        `json:"is_table"`
	Params   []ParamInfo `json:"params"`
	Returns  []ParamInfo `json:"returns"`
}

// ParamNames lists the parameter names in order.
func (u UDFInfo) ParamNames() []string {
	out := make([]string, len(u.Params))
	for i, p := range u.Params {
		out[i] = p.Name
	}
	return out
}

// funcDef rebuilds the catalog definition from the project metadata, less
// its body.
func (u UDFInfo) funcDef() (*storage.FuncDef, error) {
	params, err := toSchema(u.Params)
	if err != nil {
		return nil, err
	}
	returns, err := toSchema(u.Returns)
	if err != nil {
		return nil, err
	}
	if len(returns) == 0 {
		return nil, core.Errorf(core.KindConstraint, "UDF %s has no declared return type", u.Name)
	}
	return &storage.FuncDef{
		Name: u.Name, Params: params, Returns: returns,
		Language: languageOf(u), IsTable: u.IsTable,
	}, nil
}

func toSchema(ps []ParamInfo) (storage.Schema, error) {
	var s storage.Schema
	for _, p := range ps {
		t, err := storage.ParseType(p.Type)
		if err != nil {
			return nil, err
		}
		s = append(s, storage.ColumnDef{Name: p.Name, Type: t})
	}
	return s, nil
}

// Project is the IDE-style workspace holding one .py file per imported UDF
// plus signature metadata, all inside a core.FS so tests and examples can
// run it in memory.
type Project struct {
	fs  core.FS
	dir string
}

// OpenProject opens (or conceptually creates) a project rooted at dir.
func OpenProject(fs core.FS, dir string) *Project {
	if dir == "" {
		dir = "udfproject"
	}
	return &Project{fs: fs, dir: dir}
}

// FS returns the backing file system.
func (p *Project) FS() core.FS { return p.fs }

func (p *Project) path(parts ...string) string {
	segs := append([]string{p.dir}, parts...)
	return strings.Join(segs, "/")
}

// ScriptPath returns the project-relative path of a UDF's script file.
func (p *Project) ScriptPath(name string) string { return p.path(name + ".py") }

// InputPath returns the project-relative path of a UDF's extracted input
// blob (the input.bin of paper Listing 2).
func (p *Project) InputPath(name string) string { return p.path(name + ".input.bin") }

const metaFile = ".devudf/meta.json"

// readMeta loads the metadata sidecar: an empty map when it does not exist,
// the read's error when it cannot be read.
func (p *Project) readMeta() (map[string]UDFInfo, error) {
	data, err := p.fs.ReadFile(p.path(metaFile))
	if core.IsNotExist(err) {
		return map[string]UDFInfo{}, nil
	}
	if err != nil {
		return nil, err
	}
	var m map[string]UDFInfo
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, core.Wrapf(core.KindIO, err, "parse project metadata: %v", err)
	}
	return m, nil
}

func (p *Project) writeMeta(m map[string]UDFInfo) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return core.Wrapf(core.KindIO, err, "encode project metadata: %v", err)
	}
	return p.fs.WriteFile(p.path(metaFile), data)
}

// pyIdentifier is what a UDF name must match to name a script file.
var pyIdentifier = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

// SaveUDF writes a UDF's script file and then records its signature, so a
// failed save leaves the project listing what it listed before. The name
// comes from the server's catalog and becomes a file name and a def line,
// so a name that is not a Python identifier is refused before any write.
func (p *Project) SaveUDF(info UDFInfo, source string) error {
	if !pyIdentifier.MatchString(info.Name) {
		return core.Errorf(core.KindName, "UDF %q: the name is not a Python identifier", info.Name)
	}
	m, err := p.readMeta()
	if err != nil {
		return err
	}
	if err := p.fs.WriteFile(p.ScriptPath(info.Name), []byte(source)); err != nil {
		return err
	}
	m[strings.ToLower(info.Name)] = info
	return p.writeMeta(m)
}

// LoadUDF reads a UDF's script source and signature.
func (p *Project) LoadUDF(name string) (UDFInfo, string, error) {
	m, err := p.readMeta()
	if err != nil {
		return UDFInfo{}, "", err
	}
	info, ok := m[strings.ToLower(name)]
	if !ok {
		return UDFInfo{}, "", core.Errorf(core.KindName,
			"UDF %q is not in the project (import it first)", name)
	}
	src, err := p.fs.ReadFile(p.ScriptPath(info.Name))
	if err != nil {
		return UDFInfo{}, "", err
	}
	return info, string(src), nil
}

// LoadUDFSource reads just the script source of an imported UDF.
func (p *Project) LoadUDFSource(name string) (string, error) {
	_, src, err := p.LoadUDF(name)
	return src, err
}

// List returns the imported UDF names, sorted.
func (p *Project) List() ([]string, error) {
	m, err := p.readMeta()
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(m))
	for _, info := range m {
		names = append(names, info.Name)
	}
	sort.Strings(names)
	return names, nil
}

// Package storage implements the columnar storage layer of the embedded
// MonetDB-like engine: typed columns with validity bitmaps, tables, the
// catalog, and the sys.* meta tables that store UDF source code — the
// server-side state devUDF imports from and exports to.
package storage

import (
	"strings"

	"repro/internal/core"
)

// Type is a SQL column type.
type Type int

// SQL column types supported by the engine.
const (
	TInt Type = iota
	TFloat
	TStr
	TBool
	TBlob
)

// String renders the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TInt:
		return "INTEGER"
	case TFloat:
		return "DOUBLE"
	case TStr:
		return "STRING"
	case TBool:
		return "BOOLEAN"
	case TBlob:
		return "BLOB"
	default:
		return "UNKNOWN"
	}
}

// Valid reports whether t is one of the five column types: the check on a
// type byte read from outside the program.
func (t Type) Valid() bool { return t >= TInt && t <= TBlob }

// ParseType resolves a SQL type name (with common aliases) to a Type.
func ParseType(name string) (Type, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "TINYINT":
		return TInt, nil
	case "DOUBLE", "FLOAT", "REAL", "DECIMAL", "NUMERIC":
		return TFloat, nil
	case "STRING", "VARCHAR", "TEXT", "CHAR", "CLOB":
		return TStr, nil
	case "BOOLEAN", "BOOL":
		return TBool, nil
	case "BLOB", "BYTEA", "BINARY":
		return TBlob, nil
	default:
		return 0, core.Errorf(core.KindSyntax, "unknown type %q", name)
	}
}

// ColumnDef is a named, typed column in a schema.
type ColumnDef struct {
	Name string
	Type Type
}

// Schema is an ordered list of column definitions.
type Schema []ColumnDef

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

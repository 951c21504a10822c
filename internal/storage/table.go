package storage

import (
	"encoding/csv"
	"io"
	"strings"

	"repro/internal/core"
)

// Table is a named collection of equal-length columns.
type Table struct {
	Name string
	Cols []*Column
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) *Table {
	t := &Table{Name: name}
	for _, def := range schema {
		t.Cols = append(t.Cols, NewColumn(def.Name, def.Type))
	}
	return t
}

// Schema derives the table's schema from its columns.
func (t *Table) Schema() Schema {
	s := make(Schema, len(t.Cols))
	for i, c := range t.Cols {
		s[i] = ColumnDef{Name: c.Name, Type: c.Typ}
	}
	return s
}

// NumRows returns the row count (0 for a table with no columns).
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// Broadcast reconciles column lengths in place: length-1 columns broadcast
// to the longest column (the operator-at-a-time convention that lets a
// scalar UDF result or constant sit beside full columns); any other length
// that differs is refused.
func (t *Table) Broadcast() error {
	n := 0
	for _, c := range t.Cols {
		n = max(n, c.Len())
	}
	for i, c := range t.Cols {
		switch {
		case c.Len() == n:
		case c.Len() == 1:
			t.Cols[i] = c.BroadcastTo(n)
		default:
			return core.Errorf(core.KindConstraint,
				"projection columns have mismatched lengths (%d vs %d)", c.Len(), n)
		}
	}
	return nil
}

// SliceRows returns a view table holding rows [lo, hi) of t. Column slices
// alias t's backing arrays — the view must not be appended to or mutated.
// LIMIT uses it to truncate results without a gather copy.
func (t *Table) SliceRows(lo, hi int) *Table {
	out := &Table{Name: t.Name, Cols: make([]*Column, len(t.Cols))}
	for i, c := range t.Cols {
		out.Cols[i] = c.Slice(lo, hi)
	}
	return out
}

// AppendTable appends all rows of o (which must have the same schema) to t.
// The streaming client uses it to reassemble chunked result sets.
func (t *Table) AppendTable(o *Table) error {
	if len(o.Cols) != len(t.Cols) {
		return core.Errorf(core.KindConstraint,
			"cannot append %d-column batch to %d-column table", len(o.Cols), len(t.Cols))
	}
	for i, c := range t.Cols {
		if err := c.AppendAll(o.Cols[i]); err != nil {
			return err
		}
	}
	return nil
}

// Column returns the column with the given (case-insensitive) name.
func (t *Table) Column(name string) (*Column, error) {
	for _, c := range t.Cols {
		if strings.EqualFold(c.Name, name) {
			return c, nil
		}
	}
	return nil, core.Errorf(core.KindName, "no such column: %s.%s", t.Name, name)
}

// AppendRow appends one row of Go values with per-column coercion.
func (t *Table) AppendRow(vals []any) error {
	if len(vals) != len(t.Cols) {
		return core.Errorf(core.KindConstraint,
			"table %s has %d columns but %d values were supplied", t.Name, len(t.Cols), len(vals))
	}
	for i, v := range vals {
		if err := t.Cols[i].AppendValue(v); err != nil {
			return err
		}
	}
	return nil
}

// Truncate drops every row past n, keeping the schema. The engine uses it
// to roll a table back when a persistence hook refuses the batch that was
// just appended.
func (t *Table) Truncate(n int) {
	for _, c := range t.Cols {
		c.Truncate(n)
	}
}

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	out := &Table{Name: t.Name}
	for _, c := range t.Cols {
		out.Cols = append(out.Cols, c.Clone())
	}
	return out
}

// LoadCSV bulk-appends rows from CSV data. Values are coerced to the column
// types; empty fields become NULL. header reports whether the first record
// is a header line to skip.
func (t *Table) LoadCSV(r io.Reader, header bool) (int, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(t.Cols)
	cr.TrimLeadingSpace = true
	n := 0
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, core.Wrapf(core.KindIO, err, "csv: %v", err)
		}
		if first && header {
			first = false
			continue
		}
		first = false
		vals := make([]any, len(rec))
		for i, f := range rec {
			if f == "" {
				vals[i] = nil
			} else {
				vals[i] = f
			}
		}
		if err := t.AppendRow(vals); err != nil {
			return n, err
		}
		n++
	}
}

// Package dump implements database persistence for the embedded engine: a
// binary snapshot of every user table and UDF definition. It is the
// snapshot half of durable storage (internal/wal layers a write-ahead log
// on top) and how a developer ships a reproducible demo database.
//
// The format ("MLDUMP2\n") persists each FuncDef.ID and the catalog's
// next-ID counter, so sys.functions IDs survive a dump/restore cycle, and
// compresses columns (dictionary-encoded strings, run-length-encoded runs
// — see compress.go). Its predecessor, version 1, stored plain columns and
// dropped function IDs; Restore refuses it with a typed error.
package dump

import (
	"bytes"
	"encoding/binary"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
)

const (
	magicPrefix = "MLDUMP"
	magicV2     = magicPrefix + "2\n"
)

// Dump writes a snapshot of db (tables + functions) to w.
func Dump(db *engine.DB, w io.Writer) error {
	var buf []byte
	err := db.Lock(func(cat *storage.Catalog) error {
		var err error
		buf, err = EncodeCatalog(cat)
		return err
	})
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return core.Wrapf(core.KindIO, err, "write dump: %v", err)
	}
	return nil
}

// EncodeCatalog serializes the catalog in the current (V2) format. The
// caller must hold the database lock; internal/wal calls it under
// DB.Lock to write checkpoint snapshots.
func EncodeCatalog(cat *storage.Catalog) ([]byte, error) {
	buf := []byte(magicV2)
	buf = binary.BigEndian.AppendUint32(buf, uint32(cat.NextID()))
	names := cat.TableNames()
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(names)))
	for _, name := range names {
		t, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		buf = storage.EncodeTableWith(buf, t, appendColumnV2)
	}
	funcs := cat.Functions()
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(funcs)))
	for _, f := range funcs {
		buf = AppendFuncDef(buf, f)
	}
	return buf, nil
}

// AppendFuncDef appends a function definition in the V2 form (ID
// included). The WAL uses the same encoding for its CREATE FUNCTION and
// Go-UDF registration records.
func AppendFuncDef(buf []byte, f *storage.FuncDef) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(f.ID))
	buf = storage.AppendString(buf, f.Name)
	buf = storage.AppendString(buf, f.Language)
	buf = storage.AppendString(buf, f.Body)
	if f.IsTable {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = encodeSchema(buf, f.Params)
	buf = encodeSchema(buf, f.Returns)
	return buf
}

func encodeSchema(buf []byte, s storage.Schema) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	for _, c := range s {
		buf = storage.AppendString(buf, c.Name)
		buf = append(buf, byte(c.Type))
	}
	return buf
}

// Restore loads a snapshot produced by Dump into db, all-or-nothing: on
// any error the database is left exactly as it was. Existing tables or
// functions with clashing names fail the restore. It decodes the snapshot
// and installs it with engine.DB.Restore, which logs it when persistence
// is installed; internal/wal restores its checkpoint snapshots here too.
func Restore(db *engine.DB, r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return core.Wrapf(core.KindIO, err, "read dump: %v", err)
	}
	switch {
	case bytes.HasPrefix(data, []byte(magicV2)):
	case bytes.HasPrefix(data, []byte(magicPrefix)):
		// Another format version (version 1 wrote plain columns and no
		// function IDs): name it rather than misread it or call it foreign.
		return core.Errorf(core.KindProtocol, "unsupported dump version %q; this build reads %q only",
			data[:min(len(data), len(magicV2))], magicV2)
	default:
		return core.Errorf(core.KindProtocol, "not a monetlite dump")
	}
	br := storage.NewByteReader(data[len(magicV2):])
	nextID, err := br.U32()
	if err != nil {
		return err
	}
	ntables, err := br.U32()
	if err != nil {
		return err
	}
	var tables []*storage.Table
	budget := maxDumpCells
	for i := uint32(0); i < ntables; i++ {
		t, err := storage.DecodeTableWith(br, func(br *storage.ByteReader) (*storage.Column, error) {
			return readColumnV2(br, &budget)
		})
		if err != nil {
			return err
		}
		tables = append(tables, t)
	}
	nfuncs, err := br.U32()
	if err != nil {
		return err
	}
	var funcs []*storage.FuncDef
	for i := uint32(0); i < nfuncs; i++ {
		f, err := ReadFuncDef(br)
		if err != nil {
			return err
		}
		funcs = append(funcs, f)
	}
	if br.Remaining() != 0 {
		return core.Errorf(core.KindProtocol, "trailing bytes in dump")
	}
	return db.Restore(tables, funcs, int(nextID))
}

// ReadFuncDef reads one V2 function definition (the AppendFuncDef form).
func ReadFuncDef(br *storage.ByteReader) (*storage.FuncDef, error) {
	id, err := br.U32()
	if err != nil {
		return nil, err
	}
	if id > 1<<30 {
		return nil, core.Errorf(core.KindProtocol, "implausible function id %d", id)
	}
	f := &storage.FuncDef{ID: int(id)}
	if f.Name, err = br.Str(); err != nil {
		return nil, err
	}
	if f.Language, err = br.Str(); err != nil {
		return nil, err
	}
	if f.Body, err = br.Str(); err != nil {
		return nil, err
	}
	isTable, err := br.U8()
	if err != nil {
		return nil, err
	}
	if isTable > 1 {
		return nil, core.Errorf(core.KindProtocol, "invalid is_table flag %d", isTable)
	}
	f.IsTable = isTable == 1
	if f.Params, err = decodeSchema(br); err != nil {
		return nil, err
	}
	if f.Returns, err = decodeSchema(br); err != nil {
		return nil, err
	}
	return f, nil
}

func decodeSchema(br *storage.ByteReader) (storage.Schema, error) {
	n, err := br.U32()
	if err != nil {
		return nil, err
	}
	if n > 1<<12 {
		return nil, core.Errorf(core.KindProtocol, "implausible schema size %d", n)
	}
	var s storage.Schema
	for i := uint32(0); i < n; i++ {
		name, err := br.Str()
		if err != nil {
			return nil, err
		}
		tb, err := br.U8()
		if err != nil {
			return nil, err
		}
		typ := storage.Type(tb)
		if !typ.Valid() {
			return nil, core.Errorf(core.KindProtocol, "unknown type %d in dump", tb)
		}
		s = append(s, storage.ColumnDef{Name: name, Type: typ})
	}
	return s, nil
}

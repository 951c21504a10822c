package engine

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
)

// This file is the engine half of durable storage. Every statement that
// mutates the catalog or table data describes itself as a Change and offers
// it to the installed commit hook while the database lock is still held; if
// the hook refuses (the WAL append failed), the mutation is undone and the
// statement fails, so a change is either durable and applied, or neither.
// apply is the one place the catalog changes: statements reach it through
// mutate, which commits and undoes on a refusal, and WAL replay through
// ApplyChange, which does not log. INSERT and COPY append in place, then
// commit or truncate (commitAppend).

// ChangeKind discriminates the logical record types of the write-ahead log.
type ChangeKind int

// Change kinds, one per durable mutation the engine can perform.
const (
	// ChangeCreateTable creates a table; Table carries the schema and any
	// rows present at creation (RegisterTable logs bulk-loaded tables whole).
	ChangeCreateTable ChangeKind = iota + 1
	// ChangeDropTable drops the table named Name.
	ChangeDropTable
	// ChangeInsert appends Table's rows (a batch, not a whole table) to the
	// stored table named Name. INSERT and COPY INTO both log this.
	ChangeInsert
	// ChangeCreateFunction creates the UDF Func (ID already assigned);
	// Replace carries CREATE OR REPLACE.
	ChangeCreateFunction
	// ChangeDropFunction drops the UDF named Name.
	ChangeDropFunction
	// ChangeRegisterGoUDF records a native Go UDF registration marker: the
	// catalog entry (Func) is replayable, while the Go implementation itself
	// must be re-registered by the embedding process at startup.
	ChangeRegisterGoUDF
)

// Change is one committed logical mutation, handed to the persistence hook
// at commit points. Table and Func may alias live catalog state: hooks must
// serialize what they need before returning and not retain the pointers.
//
// For ChangeInsert with To > From, Table is the LIVE table and [From, To)
// is the appended batch — the hook serializes that range directly
// (storage.EncodeTableRange) so the hot commit path never copies rows.
// With From == To == 0 the whole Table is the batch, which is what replay
// produces after decoding a logged record.
type Change struct {
	Kind     ChangeKind
	Name     string
	Table    *storage.Table
	From, To int
	Func     *storage.FuncDef
	Replace  bool
}

// insertBatch resolves the rows a ChangeInsert appends, materializing the
// range form into a standalone batch. Replay-path only; commit-path hooks
// encode the range without copying.
func (ch Change) insertBatch() *storage.Table {
	if ch.To > ch.From {
		return ch.Table.SliceRows(ch.From, ch.To)
	}
	return ch.Table
}

// SetPersistence installs the durability hooks: onCommit receives every
// Change under the database lock and may veto it by returning an error
// (the engine rolls the mutation back); checkpoint is what DB.Checkpoint
// delegates to. Either may be nil. internal/wal installs both.
func (db *DB) SetPersistence(onCommit func(Change) error, checkpoint func() error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.onCommit = onCommit
	db.checkpoint = checkpoint
}

// Checkpoint forces a durability checkpoint (snapshot + WAL rotation) when
// persistence is configured, and is a no-op otherwise. It must be called
// without the database lock held: the checkpoint function takes it.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	cp := db.checkpoint
	db.mu.Unlock()
	if cp == nil {
		return nil
	}
	return cp()
}

// commit offers a change to the persistence hook. Called with db.mu held,
// after the in-memory mutation succeeded; a non-nil error obliges the
// caller to roll that mutation back. The hook's time (WAL encode, append
// and any synchronous fsync) is the WAL span of tr, the statement's trace
// (nil outside a traced statement), and a refusal is counted as a commit
// veto — previously these rollbacks were indistinguishable from any other
// IO error.
func (db *DB) commit(ch Change, tr *obs.Trace) error {
	if db.onCommit == nil {
		return nil
	}
	wt := tr.StartStage(obs.StageWAL)
	err := db.onCommit(ch)
	wt.Done()
	if err != nil {
		if m := db.metrics; m != nil {
			m.commitVetoes.Inc()
		}
		return core.Wrapf(core.KindIO, err, "persist commit: %v", err)
	}
	return nil
}

// ApplyChange applies a recovered change to the database without invoking
// the persistence hook — the WAL replay path. Unknown kinds (a log written
// by a newer build) are rejected rather than skipped.
func (db *DB) ApplyChange(ch Change) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, err := db.apply(ch)
	return err
}

// mutate is how a statement changes the catalog: apply ch, then commit it
// (see commit for tr), undoing it if the commit is refused. Called with
// db.mu held.
func (db *DB) mutate(ch Change, tr *obs.Trace) error {
	undo, err := db.apply(ch)
	if err != nil {
		return err
	}
	if err := db.commit(ch, tr); err != nil {
		undo()
		return err
	}
	return nil
}

// apply makes ch's change to the catalog and returns its inverse; a
// function's change also drops its compiled callable. Statements (through
// mutate) and WAL replay both change the catalog here. Called with db.mu
// held.
func (db *DB) apply(ch Change) (undo func(), err error) {
	cat := db.cat
	switch ch.Kind {
	case ChangeCreateTable:
		if err := cat.CreateTable(ch.Table); err != nil {
			return nil, err
		}
		return func() { _ = cat.DropTable(ch.Table.Name) }, nil
	case ChangeDropTable:
		old, err := cat.Table(ch.Name)
		if err != nil {
			return nil, err
		}
		if err := cat.DropTable(ch.Name); err != nil {
			return nil, err
		}
		return func() { _ = cat.CreateTable(old) }, nil
	case ChangeInsert:
		t, err := cat.Table(ch.Name)
		if err != nil {
			return nil, err
		}
		n0 := t.NumRows()
		if err := t.AppendTable(ch.insertBatch()); err != nil {
			return nil, err
		}
		return func() { t.Truncate(n0) }, nil
	case ChangeCreateFunction, ChangeRegisterGoUDF:
		name := ch.Func.Name
		prior, _ := cat.Function(name)
		if err := cat.InstallFunction(ch.Func, ch.Replace || ch.Kind == ChangeRegisterGoUDF); err != nil {
			return nil, err
		}
		delete(db.compiled, prior)
		return func() {
			if prior != nil {
				_ = cat.InstallFunction(prior, true)
			} else {
				_ = cat.DropFunction(name)
			}
		}, nil
	case ChangeDropFunction:
		old, err := cat.Function(ch.Name)
		if err != nil {
			return nil, err
		}
		_ = cat.DropFunction(ch.Name)
		delete(db.compiled, old)
		return func() { _ = cat.InstallFunction(old, false) }, nil
	default:
		return nil, core.Errorf(core.KindProtocol, "unknown change kind %d in log", ch.Kind)
	}
}

// funcID is the ID a new definition of name takes: that of the function it
// replaces, otherwise the catalog's next.
func (db *DB) funcID(name string) int {
	if f, err := db.cat.Function(name); err == nil {
		return f.ID
	}
	return db.cat.NextID()
}

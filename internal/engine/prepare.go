package engine

import (
	"container/list"
	"context"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// defaultPlanCacheSize bounds the DB plan cache when DB.PlanCacheSize is 0.
const defaultPlanCacheSize = 256

// planEntry is one cached plan: the parsed statement plus its bind-slot
// count, keyed by normalized SQL text.
type planEntry struct {
	key     string
	st      sqlparse.Statement
	nparams int
	elem    *list.Element
}

// PlanCacheStats is a snapshot of the plan cache's activity.
type PlanCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// normalizeSQL is the plan-cache key rule: surrounding whitespace and
// trailing statement separators do not make a new plan.
func normalizeSQL(sql string) string {
	return strings.TrimRight(strings.TrimSpace(sql), "; \t\n\r")
}

// cachedParse parses one statement through the DB plan cache: identical
// normalized SQL skips the lexer and parser entirely and reuses the
// previous AST (execution never mutates it). Must be called with db.mu
// held. A negative PlanCacheSize disables caching.
func (db *DB) cachedParse(sql string) (sqlparse.Statement, int, error) {
	if db.PlanCacheSize < 0 {
		st, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, 0, err
		}
		return st, sqlparse.NumParams(st), nil
	}
	key := normalizeSQL(sql)
	if e, ok := db.plans[key]; ok {
		db.planLRU.MoveToFront(e.elem)
		db.planHits.Add(1)
		if tr := db.activeTrace; tr != nil {
			tr.CacheHit = true
		}
		return e.st, e.nparams, nil
	}
	db.planMisses.Add(1)
	pt := db.activeTrace.StartStage(obs.StageParse)
	st, err := sqlparse.Parse(sql)
	pt.Done()
	if err != nil {
		return nil, 0, err
	}
	e := &planEntry{key: key, st: st, nparams: sqlparse.NumParams(st)}
	if db.plans == nil {
		db.plans = map[string]*planEntry{}
		db.planLRU = list.New()
	}
	cap := db.PlanCacheSize
	if cap == 0 {
		cap = defaultPlanCacheSize
	}
	for len(db.plans) >= cap {
		oldest := db.planLRU.Back()
		if oldest == nil {
			break
		}
		victim := db.planLRU.Remove(oldest).(*planEntry)
		delete(db.plans, victim.key)
		db.planEvictions.Add(1)
	}
	e.elem = db.planLRU.PushFront(e)
	db.plans[key] = e
	db.planEntries.Store(int64(len(db.plans)))
	return st, e.nparams, nil
}

// invalidatePlans drops every cached plan. Called (with db.mu held) on any
// catalog change — CREATE/DROP TABLE, CREATE/DROP FUNCTION, Go-UDF
// (re-)registration, bulk table registration — so a cached plan can never
// outlive the schema it was planned against.
func (db *DB) invalidatePlans() {
	db.plans = nil
	db.planLRU = nil
	db.planEntries.Store(0)
}

// PlanCacheStatsSnapshot reports plan-cache hits, misses, evictions and
// live entries. The counters are atomic, so this never blocks behind a
// running statement.
func (db *DB) PlanCacheStatsSnapshot() PlanCacheStats {
	return PlanCacheStats{
		Hits:      db.planHits.Load(),
		Misses:    db.planMisses.Load(),
		Evictions: db.planEvictions.Load(),
		Entries:   int(db.planEntries.Load()),
	}
}

// Stmt is a prepared statement: SQL parsed and planned once, executed many
// times with bind arguments — the amortization the devUDF workflow's
// repeated import/run/debug queries want. Placeholder slots are typed at
// the first bind and re-checked on every execution (INTEGER widens into a
// DOUBLE slot; anything else mismatched is rejected). Execution serializes
// on the database lock, and the bind-type state has its own lock, so a
// Stmt is safe for concurrent use.
type Stmt struct {
	conn    *Conn
	sql     string
	st      sqlparse.Statement
	nparams int

	mu    sync.Mutex
	types []storage.Type
	typed []bool
}

// Prepare compiles sql into a reusable statement. The parse goes through
// (and seeds) the DB plan cache, so preparing the same text twice shares
// one AST.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	c.DB.mu.Lock()
	st, nparams, err := c.DB.cachedParse(sql)
	c.DB.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &Stmt{
		conn:    c,
		sql:     sql,
		st:      st,
		nparams: nparams,
		types:   make([]storage.Type, nparams),
		typed:   make([]bool, nparams),
	}, nil
}

// SQL returns the statement's original text.
func (s *Stmt) SQL() string { return s.sql }

// NumParams reports how many bind arguments each execution needs.
func (s *Stmt) NumParams() int { return s.nparams }

// Query executes the statement with one set of bind arguments and returns
// its result.
func (s *Stmt) Query(args ...any) (*Result, error) { return s.ExecWith(ExecOpts{}, args...) }

// Exec is Query for statements executed for their side effects; the
// returned Result carries the status tag.
func (s *Stmt) Exec(args ...any) (*Result, error) { return s.ExecWith(ExecOpts{}, args...) }

// ExecContext is Exec honoring the context's cancellation and deadline
// mid-execution (see Conn.ExecContext) and reporting bind and execution
// spans into the trace carried on ctx (obs.WithTrace), if any.
func (s *Stmt) ExecContext(ctx context.Context, args ...any) (*Result, error) {
	return s.ExecWith(ExecOpts{Interrupt: InterruptFrom(ctx), Trace: obs.TraceFrom(ctx)}, args...)
}

// ExecWith is ExecContext without the context detour — see Conn.ExecWith.
// It turns the Go arguments into length-1 columns (storage.BindValue) and
// hands them to ExecBound.
func (s *Stmt) ExecWith(o ExecOpts, args ...any) (*Result, error) {
	cols := make([]*storage.Column, len(args))
	for i, v := range args {
		col, err := storage.BindValue(v)
		if err != nil {
			return nil, core.Wrapf(core.KindType, err, "parameter %d: %v", i+1, err)
		}
		cols[i] = col
	}
	return s.ExecBound(o, cols)
}

// ExecBound executes the statement with its bind arguments already in the
// form execution uses, one length-1 column each: what the wire server
// decodes from MsgExecStmt and ExecWith builds from Go values. The slice is
// the statement's for the duration of the call.
func (s *Stmt) ExecBound(o ExecOpts, cols []*storage.Column) (*Result, error) {
	bt := o.Trace.StartStage(obs.StageBind)
	err := s.typeSlots(cols)
	bt.Done()
	if err != nil {
		return nil, err
	}
	if o.Trace != nil {
		// The statement was parsed once at Prepare; every execution is a
		// plan reuse regardless of what the text cache does.
		o.Trace.CacheHit = true
	}
	c := s.conn
	return c.DB.guarded(o, func() (*Result, error) {
		c.binds = cols
		defer func() { c.binds = nil }()
		return c.execStmt(s.st)
	})
}

// typeSlots enforces the slot types recorded at the first bind on cols,
// replacing in place the columns that have to change type to fit.
func (s *Stmt) typeSlots(cols []*storage.Column) error {
	if len(cols) != s.nparams {
		return core.Errorf(core.KindConstraint,
			"statement expects %d bind parameter(s), got %d", s.nparams, len(cols))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, col := range cols {
		switch {
		case col.IsNull(0):
			// NULL binds into any slot, as a column of the engine's own
			// (zero under the NULL bit, whatever a client sent there); it
			// takes the slot's type once known so downstream kernels see a
			// consistently-typed column.
			typ := col.Typ
			if s.typed[i] {
				typ = s.types[i]
			}
			cols[i] = storage.NewColumn("", typ)
			cols[i].AppendNull()
		case !s.typed[i]:
			s.types[i], s.typed[i] = col.Typ, true
		case col.Typ == s.types[i]:
		case s.types[i] == storage.TFloat && col.Typ == storage.TInt:
			cols[i] = storage.NewColumn("", storage.TFloat)
			cols[i].AppendFloat(float64(col.Ints[0]))
		default:
			return core.Errorf(core.KindType,
				"parameter %d: cannot bind %s into a %s slot (typed at first bind)",
				i+1, col.Typ, s.types[i])
		}
	}
	return nil
}

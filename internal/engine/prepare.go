package engine

import (
	"container/list"
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// planCacheSize bounds the DB plan cache. The cache is keyed by a
// statement's shape: its text as written with each literal replaced by a
// slot of the literal's kind (INTEGER, DOUBLE, STRING), less surrounding
// whitespace and trailing ';'. Texts that differ only in literal values —
// prepared or not — share one parsed plan, their literals bound to its
// slots. Literals the engine reads as syntax stay in the plan and must
// repeat for a text to use it: ORDER BY positions, LIMIT, COPY paths and
// the first two arguments of sys_extract. NULL, TRUE and FALSE are
// keywords, so they are part of the shape. A plan is the parsed statement,
// and parsing reads no catalog, so catalog changes leave the cache as it
// is.
const planCacheSize = 256

// plan is one plan-cache entry: a statement parsed from shaped text, its
// value literals turned into bind slots numbered after its own placeholders.
// It is immutable once cached, so executions read it without a lock.
type plan struct {
	key     string // the text's sqlparse.Shape key
	st      sqlparse.Statement
	nparams int // the text's own placeholders
	nbound  int // literals bound to slots
	// slots holds, for each literal of the shape, its bind slot, or -1 for
	// a literal the statement keeps as syntax; pins holds those literals'
	// text, which a text must repeat to use this plan.
	slots []int
	pins  []string
	elem  *list.Element
}

// planCache maps shape keys to plans under its own mutex, so no lookup
// waits for db.mu; the counters are atomic, so a scrape takes no lock.
type planCache struct {
	mu      sync.Mutex
	byShape map[string]*plan
	lru     *list.List

	hits, misses, evictions atomic.Uint64
	entries                 atomic.Int64
}

// PlanCacheStats is a snapshot of the plan cache's activity.
type PlanCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// shapes recycles shape buffers, which then grow no more.
var shapes = sync.Pool{New: func() any { return new(sqlparse.Shape) }}

// resolve makes s the statement for sql: shape the text, look the shape
// up, on a miss parse the text and cache what it parses to, and bind the
// text's literals. It takes no lock but the cache's own; tr receives the
// parse span of a miss.
func (c *Conn) resolve(s *Stmt, sql string, tr *obs.Trace) error {
	sh := shapes.Get().(*sqlparse.Shape)
	defer shapes.Put(sh)
	if err := sh.Scan(sql); err != nil {
		return err
	}
	s.conn, s.sql = c, sql
	pc := &c.DB.plans
	if p := pc.lookup(sh); p != nil {
		if lits, ok := p.bind(sh); ok {
			pc.hits.Add(1)
			s.plan, s.lits, s.reused = p, lits, true
			return nil
		}
	}
	pc.misses.Add(1)
	pt := tr.StartStage(obs.StageParse)
	st, slots, err := sqlparse.Parameterize(sql, func(call *sqlparse.FuncCall) int {
		if strings.EqualFold(call.Name, extractFuncName) {
			return 2 // sys_extract reads its UDF name and options as syntax
		}
		return 0
	})
	pt.Done()
	if err != nil {
		return err
	}
	p := &plan{key: string(sh.Key), st: st, slots: slots, pins: make([]string, len(slots))}
	for i, slot := range slots {
		if slot < 0 {
			p.pins[i] = sh.Lits[i].Text
		} else {
			p.nbound++
		}
	}
	p.nparams = sqlparse.NumParams(st) - p.nbound
	s.plan = p
	s.lits, _ = p.bind(sh) // the parse succeeded, so every literal converts
	pc.store(p)
	return nil
}

// bind builds the length-1 column of each of the shape's bound literals, in
// slot order, their headers in one allocation; false when a number does not
// convert (the parse reports it).
func (p *plan) bind(sh *sqlparse.Shape) ([]*storage.Column, bool) {
	cols := make([]*storage.Column, p.nbound)
	cells := make([]storage.Column, p.nbound)
	for i, l := range sh.Lits {
		if p.slots[i] < 0 {
			continue
		}
		col := &cells[p.slots[i]-p.nparams]
		col.Typ = l.Kind
		switch l.Kind {
		case storage.TInt:
			n, err := strconv.ParseInt(l.Text, 10, 64)
			if err != nil {
				return nil, false
			}
			col.AppendInt(n)
		case storage.TFloat:
			f, err := strconv.ParseFloat(l.Text, 64)
			if err != nil {
				return nil, false
			}
			col.AppendFloat(f)
		default:
			// A copy: a stored string must not keep the statement text alive.
			col.AppendStr(strings.Clone(l.Text))
		}
		cols[p.slots[i]-p.nparams] = col
	}
	return cols, true
}

// lookup returns the cached plan of sh's shape, marking it most recently
// used, or nil — also when sh does not repeat the plan's pinned literals.
func (pc *planCache) lookup(sh *sqlparse.Shape) *plan {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	p := pc.byShape[string(sh.Key)]
	if p == nil {
		return nil
	}
	for i, s := range p.slots {
		if s < 0 && sh.Lits[i].Text != p.pins[i] {
			return nil
		}
	}
	pc.lru.MoveToFront(p.elem)
	return p
}

// store caches p, in place of a plan of its shape with other pinned
// literals, evicting least recently used plans down to the bound.
func (pc *planCache) store(p *plan) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.byShape == nil {
		pc.byShape, pc.lru = map[string]*plan{}, list.New()
	}
	if old := pc.byShape[p.key]; old != nil {
		pc.lru.Remove(old.elem)
	}
	for pc.lru.Len() >= planCacheSize {
		delete(pc.byShape, pc.lru.Remove(pc.lru.Back()).(*plan).key)
		pc.evictions.Add(1)
	}
	pc.byShape[p.key] = p
	p.elem = pc.lru.PushFront(p)
	pc.entries.Store(int64(pc.lru.Len()))
}

// PlanCacheStatsSnapshot reports plan-cache hits, misses, evictions and
// live entries. The counters are atomic, so this never blocks behind a
// running statement.
func (db *DB) PlanCacheStatsSnapshot() PlanCacheStats {
	return PlanCacheStats{
		Hits:      db.plans.hits.Load(),
		Misses:    db.plans.misses.Load(),
		Evictions: db.plans.evictions.Load(),
		Entries:   int(db.plans.entries.Load()),
	}
}

// Stmt is a prepared statement: SQL parsed and planned once, executed many
// times with bind arguments — the amortization the devUDF workflow's
// repeated import/run/debug queries want. Placeholder slots are typed at
// the first bind and re-checked on every execution (INTEGER widens into a
// DOUBLE slot; anything else mismatched is rejected). Execution serializes
// on the database lock, and the bind-type state has its own lock, so a
// Stmt is safe for concurrent use. Ad-hoc text runs as a Stmt too, one
// built per statement (see Conn.ExecWith).
type Stmt struct {
	conn *Conn
	sql  string
	plan *plan
	// lits binds the text's own literals, in the slots after the
	// statement's placeholders.
	lits []*storage.Column
	// reused reports executions as plan reuse in their trace: always for a
	// prepared statement, for ad-hoc text when its plan came from the cache.
	reused bool
	// slots holds the placeholders' types; nil for ad-hoc text, which has
	// no placeholders (and so stays off the heap).
	slots *slotTypes
}

// slotTypes records each placeholder's type at its first bind.
type slotTypes struct {
	mu    sync.Mutex
	types []storage.Type
	typed []bool
}

// Prepare compiles sql into a reusable statement. It resolves through the
// DB plan cache, so preparing text that was run ad hoc, or whose literals
// differ only in value from text prepared before, shares one plan. It does
// not take the database lock: a statement prepares while another runs.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	s := new(Stmt)
	if err := c.resolve(s, sql, nil); err != nil {
		return nil, err
	}
	n := s.plan.nparams
	s.reused, s.slots = true, &slotTypes{types: make([]storage.Type, n), typed: make([]bool, n)}
	return s, nil
}

// SQL returns the statement's original text.
func (s *Stmt) SQL() string { return s.sql }

// NumParams reports how many bind arguments each execution needs.
func (s *Stmt) NumParams() int { return s.plan.nparams }

// Query executes the statement with one set of bind arguments and returns
// its result.
func (s *Stmt) Query(args ...any) (*Result, error) { return s.ExecWith(ExecOpts{}, args...) }

// Exec is Query for statements executed for their side effects; the
// returned Result carries the status tag.
func (s *Stmt) Exec(args ...any) (*Result, error) { return s.ExecWith(ExecOpts{}, args...) }

// ExecContext is Exec honoring the context's cancellation and deadline
// mid-execution (see Conn.ExecContext).
func (s *Stmt) ExecContext(ctx context.Context, args ...any) (*Result, error) {
	return s.ExecWith(ExecOpts{Interrupt: InterruptFrom(ctx)}, args...)
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
// the statement's for the duration of the call. Every statement the engine
// runs outside a script or a UDF's loopback query runs here.
func (s *Stmt) ExecBound(o ExecOpts, cols []*storage.Column) (*Result, error) {
	bt := o.Trace.StartStage(obs.StageBind)
	err := s.typeSlots(cols)
	binds := cols
	switch {
	case len(cols) == 0:
		binds = s.lits
	case len(s.lits) > 0:
		binds = append(cols[:len(cols):len(cols)], s.lits...)
	}
	bt.Done()
	if err != nil {
		return nil, err
	}
	if o.Trace != nil {
		o.Trace.CacheHit = s.reused
	}
	f := &frame{Conn: s.conn, ExecOpts: o, binds: binds}
	return f.guarded(s.plan.st)
}

// typeSlots enforces the slot types recorded at the first bind on cols,
// replacing in place the columns that have to change type to fit.
func (s *Stmt) typeSlots(cols []*storage.Column) error {
	if len(cols) != s.plan.nparams {
		return core.Errorf(core.KindConstraint,
			"statement expects %d bind parameter(s), got %d", s.plan.nparams, len(cols))
	}
	if len(cols) == 0 {
		return nil
	}
	ts := s.slots
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for i, col := range cols {
		switch {
		case col.IsNull(0):
			// NULL binds into any slot, as a column of the engine's own
			// (zero under the NULL bit, whatever a client sent there); it
			// takes the slot's type once known so downstream kernels see a
			// consistently-typed column.
			typ := col.Typ
			if ts.typed[i] {
				typ = ts.types[i]
			}
			cols[i] = storage.NewColumn("", typ)
			cols[i].AppendNull()
		case !ts.typed[i]:
			ts.types[i], ts.typed[i] = col.Typ, true
		case col.Typ == ts.types[i]:
		case ts.types[i] == storage.TFloat && col.Typ == storage.TInt:
			cols[i] = storage.NewColumn("", storage.TFloat)
			cols[i].AppendFloat(float64(col.Ints[0]))
		default:
			return core.Errorf(core.KindType,
				"parameter %d: cannot bind %s into a %s slot (typed at first bind)",
				i+1, col.Typ, ts.types[i])
		}
	}
	return nil
}

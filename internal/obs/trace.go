package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// traceEpoch anchors the monotonic stage clock. time.Since on a base
// that carries a monotonic reading compiles down to a single monotonic
// clock read — roughly half the cost of time.Now, which also reads the
// wall clock. Stage spans only ever need durations, so they use this.
var traceEpoch = time.Now()

// monoNanos is the stage clock: monotonic nanoseconds since process
// start. One clock read, no wall-time component.
func monoNanos() int64 { return int64(time.Since(traceEpoch)) }

// Trace stages. A query's wall time decomposes into these fixed spans;
// StageExec covers the whole engine execution window and therefore
// overlaps StageUDF and StageWAL, which time sub-work inside it.
const (
	StageParse = iota // SQL → AST (plan-cache miss only)
	StageBind         // prepared-statement argument binding
	StageExec         // engine execution (vectorized kernels, includes udf/wal below)
	StageUDF          // user-defined function invocations
	StageWAL          // write-ahead log append + fsync
	StageWrite        // result frame serialization onto the socket
	numStages
)

// StageNames maps stage indices to their short names, in stage order.
var StageNames = [numStages]string{"parse", "bind", "exec", "udf", "wal", "write"}

// Trace accumulates per-stage durations for one query. It is written
// from the query's goroutine and from morsel workers (UDF spans), so
// the stage cells are atomic; everything else is set before the query
// starts or after it finishes.
type Trace struct {
	Query    string
	User     string
	Start    time.Time
	Rows     int64
	CacheHit bool
	Err      string

	stages [numStages]atomic.Int64 // nanoseconds per stage
}

// NewTrace starts a trace for one query.
func NewTrace(query, user string) *Trace {
	return &Trace{Query: query, User: user, Start: time.Now()}
}

// tracePool recycles traces on the per-query serving path, where a
// fresh allocation (plus the GC scan it later costs) is measurable
// against sub-microsecond statements.
var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// AcquireTrace returns a started trace from the pool. Pair with
// ReleaseTrace once the trace's data has been copied out (e.g. by
// QueryLog.Record); the trace must not be referenced afterwards.
func AcquireTrace(query, user string) *Trace {
	t := tracePool.Get().(*Trace)
	// Deriving the wall start from the epoch costs one monotonic read
	// instead of time.Now's two; Start still carries a monotonic
	// reading, so time.Since(Start) stays immune to wall-clock steps.
	t.Query, t.User, t.Start = query, user, traceEpoch.Add(time.Duration(monoNanos()))
	t.Rows, t.CacheHit, t.Err = 0, false, ""
	for i := range t.stages {
		t.stages[i].Store(0)
	}
	return t
}

// ReleaseTrace returns a trace to the pool. Safe on nil.
func ReleaseTrace(t *Trace) {
	if t != nil {
		tracePool.Put(t)
	}
}

// AddStage adds d to a stage's accumulated time. Safe on a nil trace.
func (t *Trace) AddStage(stage int, d time.Duration) {
	if t == nil {
		return
	}
	t.stages[stage].Add(int64(d))
}

// Stage returns the accumulated time in one stage. Safe on a nil trace.
func (t *Trace) Stage(stage int) time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.stages[stage].Load())
}

// StageTimer times one span of one stage. It is a value type so the
// nil-trace path allocates nothing: StartStage on a nil *Trace returns
// the zero StageTimer and Done on it is a no-op (and reads no clock).
type StageTimer struct {
	tr    *Trace
	stage int
	t0    int64 // monoNanos at span start
}

// StartStage begins timing a span of the given stage. Safe on nil.
func (t *Trace) StartStage(stage int) StageTimer {
	if t == nil {
		return StageTimer{}
	}
	return StageTimer{tr: t, stage: stage, t0: monoNanos()}
}

// Done ends the span and folds it into the trace.
func (s StageTimer) Done() {
	if s.tr == nil {
		return
	}
	s.tr.stages[s.stage].Add(monoNanos() - s.t0)
}

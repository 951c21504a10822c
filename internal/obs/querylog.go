package obs

import (
	"sync"
	"time"
)

// QueryLogEntry is one finished query's span breakdown, as recorded in
// the in-memory query log and surfaced through the sys.query_log
// virtual table and the slow-query log line. It is a plain value
// snapshot of a Trace — no atomics, freely copyable.
type QueryLogEntry struct {
	Seq      int64
	Query    string
	User     string
	Start    time.Time
	Rows     int64
	Err      string
	Total    int64 // nanoseconds wall time
	Stages   [numStages]int64
	CacheHit bool
}

// NumStages is the number of trace stages (for iterating Stages).
const NumStages = numStages

// QueryLog is a bounded ring of recently finished queries. Append is
// cheap (one mutex, no allocation once the ring is warm) and Snapshot
// copies out entries oldest-first for sys.query_log.
type QueryLog struct {
	mu   sync.Mutex
	ring []QueryLogEntry
	next int   // ring write position
	n    int   // number of valid entries (≤ len(ring))
	seq  int64 // monotonically increasing entry id
}

// NewQueryLog creates a query log retaining the last capacity entries.
func NewQueryLog(capacity int) *QueryLog {
	if capacity <= 0 {
		capacity = 256
	}
	return &QueryLog{ring: make([]QueryLogEntry, capacity)}
}

// Record appends one finished query. totalNanos is the wall time from
// trace start to frame flush.
func (q *QueryLog) Record(tr *Trace, totalNanos int64) {
	if q == nil || tr == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.seq++
	e := &q.ring[q.next]
	e.Seq = q.seq
	e.Query, e.User, e.Start = tr.Query, tr.User, tr.Start
	e.Rows, e.CacheHit, e.Err = tr.Rows, tr.CacheHit, tr.Err
	e.Total = totalNanos
	for i := 0; i < numStages; i++ {
		e.Stages[i] = int64(tr.Stage(i))
	}
	q.next = (q.next + 1) % len(q.ring)
	if q.n < len(q.ring) {
		q.n++
	}
}

// Snapshot returns the retained entries, oldest first.
func (q *QueryLog) Snapshot() []QueryLogEntry {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]QueryLogEntry, 0, q.n)
	start := q.next - q.n
	if start < 0 {
		start += len(q.ring)
	}
	for i := 0; i < q.n; i++ {
		out = append(out, q.ring[(start+i)%len(q.ring)])
	}
	return out
}

package obs

import (
	"testing"
	"time"
)

func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	// None of these may panic; StartStage/Done must be no-ops.
	st := tr.StartStage(StageExec)
	st.Done()
	tr.AddStage(StageUDF, time.Millisecond)
	if tr.Stage(StageUDF) != 0 {
		t.Fatal("nil trace should report zero stage time")
	}
}

func TestStageAccumulation(t *testing.T) {
	tr := NewTrace("SELECT 1", "monetdb")
	tr.AddStage(StageParse, 2*time.Millisecond)
	tr.AddStage(StageParse, 3*time.Millisecond)
	tr.AddStage(StageWAL, time.Millisecond)
	if got := tr.Stage(StageParse); got != 5*time.Millisecond {
		t.Errorf("parse stage = %v, want 5ms", got)
	}
	if got := tr.Stage(StageWAL); got != time.Millisecond {
		t.Errorf("wal stage = %v, want 1ms", got)
	}
	if got := tr.Stage(StageExec); got != 0 {
		t.Errorf("exec stage = %v, want 0", got)
	}
}

func TestStageTimerMeasures(t *testing.T) {
	tr := NewTrace("SELECT 1", "monetdb")
	st := tr.StartStage(StageExec)
	time.Sleep(5 * time.Millisecond)
	st.Done()
	if got := tr.Stage(StageExec); got < 2*time.Millisecond {
		t.Errorf("exec stage = %v, want at least ~5ms", got)
	}
}

func TestStartStageNilTraceNoAlloc(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(100, func() {
		st := tr.StartStage(StageUDF)
		st.Done()
	})
	if allocs != 0 {
		t.Errorf("nil-trace StageTimer allocates %v per op, want 0", allocs)
	}
}

func TestQueryLogRing(t *testing.T) {
	q := NewQueryLog(3)
	for i := 0; i < 5; i++ {
		tr := NewTrace("SELECT 1", "monetdb")
		tr.Rows = int64(i)
		tr.AddStage(StageExec, time.Duration(i)*time.Millisecond)
		q.Record(tr, int64(i)*int64(time.Millisecond))
	}
	snap := q.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d, want 3 (ring capacity)", len(snap))
	}
	// Oldest-first: entries 2, 3, 4 survive.
	for i, e := range snap {
		wantRows := int64(i + 2)
		if e.Rows != wantRows {
			t.Errorf("entry %d rows = %d, want %d", i, e.Rows, wantRows)
		}
		if e.Seq != wantRows+1 {
			t.Errorf("entry %d seq = %d, want %d", i, e.Seq, wantRows+1)
		}
		if e.Stages[StageExec] != wantRows*int64(time.Millisecond) {
			t.Errorf("entry %d exec nanos = %d", i, e.Stages[StageExec])
		}
	}
}

func TestQueryLogNilSafe(t *testing.T) {
	var q *QueryLog
	q.Record(NewTrace("x", "u"), 1) // must not panic
	if q.Snapshot() != nil {
		t.Fatal("nil log snapshot should be nil")
	}
	var live = NewQueryLog(2)
	live.Record(nil, 1) // nil trace ignored
	if len(live.Snapshot()) != 0 {
		t.Fatal("nil trace should not be recorded")
	}
}

package wire

import (
	"bufio"
	"fmt"
	"testing"
	"time"

	"repro/internal/storage"
)

// readPos reads one reply and returns the single value of its pos column.
func readPos(t *testing.T, br *bufio.Reader) int64 {
	t.Helper()
	typ, payload, err := ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgResult {
		t.Fatalf("frame %d (%v), want a result", typ, DecodeError(payload))
	}
	_, tbl, err := DecodeResult(payload)
	if err != nil || tbl.NumRows() != 1 {
		t.Fatalf("result: %v %v", tbl, err)
	}
	return tbl.Cols[0].Ints[0]
}

// TestPingAnsweredWhileAStatementRuns: a query on connection A waits for
// the engine behind a debug run paused on connection B. While it waits,
// A's socket is still read: a ping sent behind the query is answered, and
// the query answers once B's run is killed.
func TestPingAnsweredWhileAStatementRuns(t *testing.T) {
	_, c := debugFixture(t)
	dc, err := c.Debug()
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	debugCmd(t, dc, DebugRequest{Command: DebugCmdLaunch, Query: "SELECT mean_deviation(i) FROM numbers",
		UDF: "mean_deviation", StopOnEntry: true})
	if ev := waitEvent(t, dc, 10*time.Second); ev.Kind != DebugEventStopped {
		t.Fatalf("entry stop: %+v", ev)
	}

	nc, br := rawSession(t, c.params)
	if err := WriteFrame(nc, MsgQuery, []byte(`SELECT COUNT(*) AS n FROM numbers`)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the query reach the engine and wait there
	if err := WriteFrame(nc, MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(time.Second))
	if typ, payload, err := ReadFrame(br); err != nil || typ != MsgPong {
		t.Fatalf("ping behind a waiting query: frame %d (%v) %v, want the pong within 1s", typ, DecodeError(payload), err)
	}
	_ = nc.SetReadDeadline(time.Time{})

	debugCmd(t, dc, DebugRequest{Command: DebugCmdKill})
	if ev := waitEvent(t, dc, 10*time.Second); ev.Kind != DebugEventTerminated {
		t.Fatalf("kill: %+v", ev)
	}
	if n := readPos(t, br); n != 5 {
		t.Fatalf("the waiting query answered %d, want 5", n)
	}
}

// TestPipelinedStatementsAnswerInOrder sends twenty statements in one
// socket write — ad-hoc queries and executions of a prepared statement,
// one of them slow enough to outlast any hand-off — and reads the replies
// in request order. A short statement then answers, and the goroutine
// count is the idle connection's again: whatever ran the pipeline handed
// the socket back and left nothing behind.
func TestPipelinedStatementsAnswerInOrder(t *testing.T) {
	_, params := startTestServer(t)
	setup, err := DialContext(background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec(background(), busyUDF); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	nc, br := rawSession(t, params)
	if err := WriteFrame(nc, MsgPrepare, []byte(`SELECT ? AS pos`)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(br)
	if err != nil || typ != MsgPrepareOK {
		t.Fatalf("prepare: frame %d (%v) %v", typ, DecodeError(payload), err)
	}
	id, _, err := DecodePrepareOK(payload)
	if err != nil {
		t.Fatal(err)
	}
	idle := settledGoroutines()

	const n, slow = 20, 6
	var batch [][]byte
	for i := 0; i < n; i++ {
		switch {
		case i == slow:
			batch = append(batch, frameBytes(MsgQuery, []byte(fmt.Sprintf(`SELECT busy(%d) AS pos`, i))))
		case i%2 == 0:
			batch = append(batch, frameBytes(MsgQuery, []byte(fmt.Sprintf(`SELECT %d AS pos`, i))))
		default:
			args, err := storage.BindValues([]any{int64(i)})
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, frameBytes(MsgExecStmt, EncodeExecStmt(id, args)))
		}
	}
	if _, err := nc.Write(join(batch...)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := readPos(t, br); got != int64(i) {
			t.Fatalf("reply %d answers request %d: out of order", i, got)
		}
	}
	if err := WriteFrame(nc, MsgQuery, []byte(`SELECT 99 AS pos`)); err != nil {
		t.Fatal(err)
	}
	if got := readPos(t, br); got != 99 {
		t.Fatalf("statement after the pipeline answered %d", got)
	}
	if after := settledGoroutines(); after > idle {
		t.Fatalf("%d goroutines after the pipeline, %d on the idle connection before it", after, idle)
	}
}

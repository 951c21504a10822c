package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/monetlite"
)

const (
	wireParamSQL = `SELECT i,f FROM params WHERE i>=? AND i<? AND f<>?`
	wireSubstSQL = `SELECT i,f FROM params WHERE i>=%d AND i<%d AND f<>%.2f`
)

// wirePhase is wire_point: one connection, a 64-row table, statements so
// small that the engine does almost nothing and the round trip is all
// encode/socket/frame/queue/parse/bind.
type wirePhase struct {
	*node
	fx      *fixture
	cur     cursor
	cli     *monetlite.Client
	stmt    *monetlite.ClientStmt
	embStmt *monetlite.Stmt // embedded twin of stmt, for replays

	bytes0 int64 // client byte counters when measurement began
	ops    int   // operations measured since
}

func newWirePhase(fx *fixture) error {
	p := &wirePhase{node: newNode(fx.traced), fx: fx, cur: cursor{seed: fx.seed, stream: phWire, ref: fx.ref}}
	fx.wire, fx.phases[phWire] = p, p
	d := fx.data
	if err := p.table("params", intColumn("i", d.paramsI), floatColumn("f", d.paramsF)); err != nil {
		return err
	}
	if err := p.listen(); err != nil {
		return err
	}
	var err error
	if p.cli, err = monetlite.DialContext(ctx, p.params); err != nil {
		return err
	}
	if p.stmt, err = p.cli.Prepare(ctx, wireParamSQL); err != nil {
		return err
	}
	p.embStmt, err = p.emb.Prepare(wireParamSQL)
	return err
}

func (p *wirePhase) close() {
	if p.cli != nil {
		p.cli.Close()
	}
	p.srv.Close()
}

func (p *wirePhase) warm(rec *recorder) {
	p.cur.driveN(2*wireBlock, func(o op) { p.do(o, rec, nil) })
}

func (p *wirePhase) run(budget time.Duration, rec *recorder, tr *tracer) (int, time.Duration) {
	if p.ops == 0 {
		p.bytes0 = p.cli.BytesRead + p.cli.BytesWritten
	}
	n, wall := p.cur.driveFor(budget, func(o op) { p.do(o, rec, tr) })
	p.ops += n
	return n, wall
}

// bytesPerOp is the client's payload traffic per measured operation.
func (p *wirePhase) bytesPerOp() float64 {
	return float64(p.cli.BytesRead+p.cli.BytesWritten-p.bytes0) / float64(p.ops)
}

func (p *wirePhase) do(o op, rec *recorder, tr *tracer) {
	cls := int(o.Class)
	rec.attempted++
	var tbl *storage.Table
	var err error
	t0 := time.Now()
	switch cls {
	case clsPrepared:
		_, tbl, err = p.stmt.Query(ctx, o.A, o.A+wireSpan, o.X)
	case clsAdhoc:
		_, tbl, err = p.cli.Query(ctx, fmt.Sprintf(wireSubstSQL, o.A, o.A+wireSpan, o.X))
	case clsPing:
		err = p.cli.Ping(ctx)
	}
	d := time.Since(t0)
	if err == nil && cls != clsPing {
		err = p.check(o, tbl)
	}
	if err != nil {
		rec.fail(classNames[cls], "%v", err)
		return
	}
	rec.add(cls, d)
	if !tr.sample(cls) {
		return
	}
	tr.begin(cls, t0, d)
	switch cls {
	case clsPrepared:
		p.replayPrepared(o, tr)
	case clsAdhoc:
		// A text the plan cache has not seen, as the timed one was.
		text := fmt.Sprintf(wireSubstSQL, o.A, o.A+wireSpan, o.X+0.25)
		tr.child("engine.adhoc_exec", 1, func() error { _, err := p.emb.Exec(text); return err })
		tr.nested("sqlparse.parse", 4, func() error { _, err := sqlparse.Parse(text); return err })
	}
}

// check is the oracle for a range statement: X never equals a stored f, so
// the rows are exactly those with i in [lo, lo+wireSpan).
func (p *wirePhase) check(o op, tbl *storage.Table) error {
	d := p.fx.data
	if tbl == nil || len(tbl.Cols) != 2 {
		return fmt.Errorf("lo=%d: malformed result", o.A)
	}
	var sum int64
	for _, v := range tbl.Cols[0].Ints {
		sum += v
	}
	if int64(tbl.NumRows()) != d.wireCount[o.A] || sum != d.wireSumI[o.A] {
		return fmt.Errorf("lo=%d: got %d rows sum %d, want %d rows sum %d",
			o.A, tbl.NumRows(), sum, d.wireCount[o.A], d.wireSumI[o.A])
	}
	return nil
}

// replayPrepared walks one prepared statement's inputs through each layer
// the round trip crossed: client encode, the two frames, the engine, result
// encode and decode. What the root has left after these is the socket, the
// goroutine hand-offs and the scheduler.
func (p *wirePhase) replayPrepared(o op, tr *tracer) {
	binds := make([]*storage.Column, 3)
	for i, v := range []any{o.A, o.A + wireSpan, o.X} {
		var err error
		if binds[i], err = storage.BindValue(v); err != nil {
			tr.rec.fail("replay bind", "%v", err)
			return
		}
	}
	var req, resp []byte
	var res *monetlite.Result
	tr.child("wire.client_encode", 16, func() error { req = wire.EncodeExecStmt(1, binds); return nil })
	tr.child("engine.prepared_exec", 4, func() (err error) { res, err = p.embStmt.Query(o.A, o.A+wireSpan, o.X); return })
	if res == nil {
		return
	}
	tr.child("wire.result_encode", 16, func() error { resp = wire.EncodeResult(res.Msg, res.Table); return nil })
	tr.child("wire.result_decode", 16, func() error { _, _, err := wire.DecodeResult(resp); return err })
	var buf bytes.Buffer
	tr.child("wire.frame_rw", 16, func() error {
		buf.Reset()
		for _, f := range []struct {
			typ     byte
			payload []byte
		}{{wire.MsgExecStmt, req}, {wire.MsgResult, resp}} {
			if err := wire.WriteFrame(&buf, f.typ, f.payload); err != nil {
				return err
			}
			if _, _, err := wire.ReadFrame(&buf); err != nil {
				return err
			}
		}
		return nil
	})
}

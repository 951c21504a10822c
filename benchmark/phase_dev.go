package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/devudf"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pickle"
	"repro/internal/script"
	"repro/internal/storage"
	"repro/internal/transfer"
	"repro/internal/transform"
	"repro/internal/wire"
	"repro/monetlite"
)

const (
	pullSQL = `SELECT i FROM numbers100k`
	// streamChunk makes the 100k-row pull travel as a dozen chunk frames
	// (the server's defaults would ship it as one frame just under 1 MiB).
	streamChunk = 64 << 10
)

// devPhase is dev_cycle, the paper's workflows: two devUDF clients with one
// pooled connection each — one extracts the full input compressed and
// encrypted, one iterates on a 500-row sample — plus a plain connection for
// the client-pull baseline.
type devPhase struct {
	*node
	fx   *fixture
	cur  cursor
	full *devudf.Client
	samp *devudf.Client
	info devudf.UDFInfo
	cli  *monetlite.Client

	sampFixed bool           // which body the sampled project currently holds
	fullWant  [2]float64     // reference result on all rows, by body
	sampWant  [2]float64     // reference result on the sample, by body
	pullTable *storage.Table // replay input for result encode/decode
	pullChunk [][]byte

	stepLat      []int64 // every StepOver of every debug session
	startLat     []int64 // NewDebugSession until the breakpoint is reached
	payloadBytes int     // packed size of the latest full extract
}

func newDevPhase(fx *fixture) error {
	p := &devPhase{node: newNode(fx.traced), fx: fx, cur: cursor{seed: fx.seed, stream: phDev, ref: fx.ref}}
	fx.dev, fx.phases[phDev] = p, p
	d := fx.data
	p.srv.StreamThreshold, p.srv.ChunkBytes = streamChunk, streamChunk
	err := p.table("numbers", intColumn("i", d.numbers))
	if err == nil {
		err = p.table("numbers100k", intColumn("i", d.pull))
	}
	if err == nil {
		err = p.exec(createMeanDeviation(udfBody(false)))
	}
	if err == nil {
		err = p.listen()
	}
	if err != nil {
		return err
	}
	seed := int64(fx.seed)
	sample := make([]int64, 0, sampleRows)
	for _, i := range transfer.SampleIndexes(numbersRows, sampleRows, seed) {
		sample = append(sample, d.numbers[i])
	}
	for b, fixed := range []bool{false, true} {
		p.fullWant[b] = meanDeviation(d.numbers, fixed)
		p.sampWant[b] = meanDeviation(sample, fixed)
	}
	if p.full, err = p.openClient(devudf.TransferOptions{Compress: true, Encrypt: true, Seed: seed}); err != nil {
		return err
	}
	if p.samp, err = p.openClient(devudf.TransferOptions{SampleSize: sampleRows, Seed: seed}); err != nil {
		return err
	}
	if _, err = p.samp.ExtractInputs(ctx, udfName); err != nil {
		return err
	}
	if p.info, _, err = p.full.Project.LoadUDF(udfName); err != nil {
		return err
	}
	if p.cli, err = monetlite.DialContext(ctx, p.params); err != nil {
		return err
	}
	if fx.traced {
		p.pullTable = &storage.Table{Name: "result", Cols: []*storage.Column{intColumn("i", d.pull)}}
		for lo := 0; lo < pullRows; lo += pullRows / 12 {
			p.pullChunk = append(p.pullChunk, wire.EncodeResultChunk(p.pullTable.SliceRows(lo, min(lo+pullRows/12, pullRows))))
		}
	}
	return nil
}

func (p *devPhase) openClient(opts devudf.TransferOptions) (*devudf.Client, error) {
	s := devudf.DefaultSettings()
	s.Connection = p.params
	s.DebugQuery = pyAggSQL
	s.Transfer = opts
	c, err := devudf.Open(ctx, s, devudf.WithFS(core.NewMemFS(nil)), devudf.WithPoolSize(1))
	if err != nil {
		return nil, err
	}
	if _, err := c.ImportUDFs(ctx, udfName); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func (p *devPhase) close() {
	if p.full != nil {
		p.full.Close()
	}
	if p.samp != nil {
		p.samp.Close()
	}
	if p.cli != nil {
		p.cli.Close()
	}
	p.srv.Close()
}

func (p *devPhase) warm(rec *recorder) {
	p.cur.driveN(len(devRound), func(o op) { p.do(o, rec, nil) })
}

func (p *devPhase) run(budget time.Duration, rec *recorder, tr *tracer) (int, time.Duration) {
	return p.cur.driveFor(budget, func(o op) { p.do(o, rec, tr) })
}

func (p *devPhase) do(o op, rec *recorder, tr *tracer) {
	cls := int(o.Class)
	rec.attempted++
	var check func() error // oracle work kept outside the timed call
	var err error
	t0 := time.Now()
	switch cls {
	case clsExtract:
		var info *devudf.ExtractInfo
		info, err = p.full.ExtractInputs(ctx, udfName)
		check = func() error {
			p.payloadBytes = info.PayloadBytes
			return p.checkExtract(info)
		}
	case clsCycleDevUDF:
		var res *devudf.RunResult
		if err = p.samp.EditBody(udfName, udfBody(o.B == 1)); err == nil {
			p.sampFixed = o.B == 1
			res, err = p.samp.RunLocal(ctx, udfName)
		}
		check = func() error { return closeTo(res.Value, p.sampWant[o.B]) }
	case clsCycleTraditional:
		var tbl *storage.Table
		tbl, err = p.full.TraditionalCycle(ctx, p.info, udfBody(o.B == 1))
		check = func() error {
			if tbl == nil || len(tbl.Cols) != 1 || tbl.NumRows() != 1 {
				return fmt.Errorf("malformed result")
			}
			return closeTo(script.FloatVal(tbl.Cols[0].Flts[0]), p.fullWant[o.B])
		}
	case clsPull:
		err = p.pull()
	case clsDebug:
		err = p.debugSession(o.A)
	}
	took := time.Since(t0)
	if err == nil && check != nil {
		err = check()
	}
	if err != nil {
		rec.fail(classNames[cls], "%v", err)
		return
	}
	rec.add(cls, took)
	if !tr.sample(cls) {
		return
	}
	tr.begin(cls, t0, took)
	switch cls {
	case clsExtract:
		p.replayExtract(tr)
	case clsPull:
		tr.child("wire.result_encode", 1, func() error {
			return wire.WriteResultStream(io.Discard, "", p.pullTable, streamChunk)
		})
		tr.child("wire.result_decode", 1, func() error {
			for _, c := range p.pullChunk {
				if _, err := wire.DecodeResultChunk(c); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

func closeTo(v script.Value, want float64) error {
	got, ok := v.(script.FloatVal)
	if !ok || math.Abs(float64(got)-want) > 1e-9 {
		return fmt.Errorf("result %v, want %v", v, want)
	}
	return nil
}

// checkExtract requires the extracted input file to hold the source column
// exactly, row for row.
func (p *devPhase) checkExtract(info *devudf.ExtractInfo) error {
	if info.TotalRows != numbersRows || info.SampleRows != numbersRows || !info.Compressed || !info.Encrypted {
		return fmt.Errorf("extract info %+v", *info)
	}
	v, err := pickle.LoadFile(p.full.Project.FS(), p.full.Project.InputPath(udfName))
	if err != nil {
		return err
	}
	var items []script.Value
	if dict, ok := v.(*script.DictVal); ok {
		if col, ok := dict.GetStr("column"); ok {
			if list, ok := col.(*script.ListVal); ok {
				items = list.Items
			}
		}
	}
	want := p.fx.data.numbers
	if len(items) != len(want) {
		return fmt.Errorf("extracted %d values, want %d", len(items), len(want))
	}
	for i, it := range items {
		if it != script.IntVal(want[i]) {
			return fmt.Errorf("extracted row %d is %v, want %d", i, it, want[i])
		}
	}
	return nil
}

// pull is the paper's E7 baseline: stream the column to the client and
// aggregate it there. Every batch must equal its slice of the source.
func (p *devPhase) pull() error {
	rs, err := p.cli.QueryStream(ctx, pullSQL)
	if err != nil {
		return err
	}
	want := p.fx.data.pull
	var sum int64
	got := 0
	for rs.Next() {
		ints := rs.Batch().Cols[0].Ints
		if got+len(ints) > len(want) {
			_ = rs.Close()
			return fmt.Errorf("pulled more than %d rows", len(want))
		}
		for i, v := range ints {
			if v != want[got+i] {
				_ = rs.Close()
				return fmt.Errorf("pulled row %d is %d, want %d", got+i, v, want[got+i])
			}
			sum += v
		}
		got += len(ints)
	}
	if err := rs.Err(); err != nil {
		return err
	}
	if got != len(want) || sum != p.fx.data.pullSum {
		return fmt.Errorf("pulled %d rows sum %d, want %d rows sum %d", got, sum, len(want), p.fx.data.pullSum)
	}
	return nil
}

// breakLine finds the second loop's body in a script's source, the line
// both bodies of the UDF accumulate the distance on (1-based; 0 if absent).
func breakLine(src []string) int {
	for i, l := range src {
		if strings.HasPrefix(strings.TrimSpace(l), "distance +=") {
			return i + 1
		}
	}
	return 0
}

// debugSession is one local debugging session on the sampled input: a
// conditional breakpoint on the second loop's body, debugSteps step-overs
// each followed by a look at the locals, then run to the end.
func (p *devPhase) debugSession(breakAt int64) error {
	t0 := time.Now()
	sess, err := p.samp.NewDebugSession(ctx, udfName, false)
	if err != nil {
		return err
	}
	line := breakLine(sess.Source())
	sess.SetBreakpoint(line, fmt.Sprintf("i == %d", breakAt))
	ev := sess.Start()
	p.startLat = append(p.startLat, int64(time.Since(t0)))
	stoppedAt := func(i int64) error {
		locals, err := sess.Locals()
		if err != nil {
			return err
		}
		if ev.Reason == devudf.ReasonDone || ev.Line != line || locals["i"] != script.IntVal(i) {
			return fmt.Errorf("stopped (%s) on line %d with i=%v, want line %d with i=%d",
				ev.Reason, ev.Line, locals["i"], line, i)
		}
		return nil
	}
	if ev.Reason != devudf.ReasonBreakpoint {
		sess.Kill()
		return fmt.Errorf("first stop is %s on line %d, want the breakpoint on line %d", ev.Reason, ev.Line, line)
	}
	err = stoppedAt(breakAt)
	for s := 0; s < debugSteps && err == nil; s++ {
		t1 := time.Now()
		ev = sess.StepOver()
		p.stepLat = append(p.stepLat, int64(time.Since(t1)))
		if _, lerr := sess.Locals(); lerr != nil {
			err = lerr
		}
	}
	if err == nil {
		// the loop body is one line, so each step-over is one iteration
		err = stoppedAt(breakAt + debugSteps)
	}
	if err != nil {
		sess.Kill()
		return err
	}
	sess.ClearBreakpoint(line)
	if ev = sess.Continue(); !ev.Terminal || ev.Err != nil {
		sess.Kill()
		return fmt.Errorf("session ended with %+v", ev)
	}
	env, err := sess.Result()
	if err != nil {
		return err
	}
	result, _ := env.Get("result")
	want := p.sampWant[0]
	if p.sampFixed {
		want = p.sampWant[1]
	}
	return closeTo(result, want)
}

// replayExtract splits one full extract into its server half (the rewritten
// query, run embedded) and its client half (unpack, unpickle, write the
// input file).
func (p *devPhase) replayExtract(tr *tracer) {
	var sql string
	var packed []byte
	tr.child("transform.rewrite", 1, func() (err error) {
		sql, err = transform.RewriteToExtract(pyAggSQL, udfName, p.full.Settings.Transfer)
		return
	})
	tr.child("devudf.extract_server", 1, func() error {
		res, err := p.emb.Exec(sql)
		if err != nil {
			return err
		}
		col, err := res.Table.Column("payload")
		if err != nil {
			return err
		}
		packed = col.Blobs[0]
		return nil
	})
	tr.child("devudf.extract_client", 1, func() error {
		_, params, _, _, err := engine.DecodeExtractPayload(packed, dbPassword)
		if err != nil {
			return err
		}
		return pickle.DumpFile(core.NewMemFS(nil), "input.bin", params)
	})
}

// remoteSteps debugs the UDF where it lives — inside the server, over the
// wire's debug sub-protocol — and returns the latency of 2×debugSteps
// step-overs from a breakpoint in the second loop (enough for a median with
// ten samples beyond it).
func (p *devPhase) remoteSteps() ([]int64, error) {
	sess, err := p.full.NewRemoteDebugSession(ctx, udfName, true)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	if _, err := sess.Start(); err != nil {
		return nil, err
	}
	if err := sess.SetBreakpoint(breakLine(sess.Source()), ""); err != nil {
		return nil, err
	}
	if ev, err := sess.Continue(); err != nil {
		return nil, err
	} else if ev.Reason != devudf.ReasonBreakpoint {
		return nil, fmt.Errorf("remote session stopped for %s, want the breakpoint", ev.Reason)
	}
	var lat []int64
	for s := 0; s < 2*debugSteps; s++ {
		t0 := time.Now()
		if _, err := sess.StepOver(); err != nil {
			return nil, err
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	return lat, nil
}

package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bench"
	"repro/internal/script"
	"repro/internal/storage"
	"repro/internal/transform"
	"repro/internal/udfrt/pyrt"
	"repro/internal/wire"
	"repro/monetlite"
)

const (
	pyAggSQL  = `SELECT mean_deviation(i) FROM numbers`
	pyMapSQL  = `SELECT square_vec(i) FROM numbers_s`
	nativeSQL = `SELECT SUM(square_go(i)) FROM big WHERE i < ?`
)

// udfPhase is udf_scan: a PYTHON aggregate over 50k rows, a PYTHON map over
// 20k rows in and out, and a 1M-row native scan (fused compare-select, GO
// UDF over the selection, aggregate kernel). The round trip is noise here.
type udfPhase struct {
	*node
	fx     *fixture
	cur    cursor
	cli    *monetlite.Client
	native *monetlite.ClientStmt

	aggWant   float64
	embNative *monetlite.Stmt
	agg, mapf *interpFn // traced pass only
}

// interpFn is a UDF body bound in a bare interpreter, for replaying the
// interpreter's share of a call without engine or wire.
type interpFn struct {
	in *script.Interp
	fn script.Value
}

func newInterpFn(db *monetlite.DB, name string) (*interpFn, error) {
	def, err := db.Catalog().Function(name)
	if err != nil {
		return nil, err
	}
	mod, err := script.Parse(name, transform.WrapFunction(name, def.Params.Names(), def.Body))
	if err != nil {
		return nil, err
	}
	in := script.NewInterp()
	env, err := in.Run(mod)
	if err != nil {
		return nil, err
	}
	fn, ok := env.Get(name)
	if !ok {
		return nil, fmt.Errorf("%s did not define itself", name)
	}
	return &interpFn{in, fn}, nil
}

func (f *interpFn) call(arg script.Value) (script.Value, error) {
	return f.in.Call(f.fn, []script.Value{arg})
}

func newUDFPhase(fx *fixture) error {
	p := &udfPhase{node: newNode(fx.traced), fx: fx, cur: cursor{seed: fx.seed, stream: phUDF, ref: fx.ref}}
	fx.udf, fx.phases[phUDF] = p, p
	d := fx.data
	p.aggWant = meanDeviation(d.numbers, true)
	err := p.table("numbers", intColumn("i", d.numbers))
	if err == nil {
		err = p.table("numbers_s", intColumn("i", d.small))
	}
	if err == nil {
		err = p.table("big", intColumn("i", d.big))
	}
	if err == nil {
		err = p.exec(createMeanDeviation(udfBody(true)), bench.SquareVectorUDF)
	}
	if err == nil {
		err = p.db.RegisterGoUDFElementwise("square_go", bench.SquareGo)
	}
	if err == nil {
		err = p.listen()
	}
	if err != nil {
		return err
	}
	if p.cli, err = monetlite.DialContext(ctx, p.params); err != nil {
		return err
	}
	if p.native, err = p.cli.Prepare(ctx, nativeSQL); err != nil {
		return err
	}
	if !fx.traced {
		return nil
	}
	if p.embNative, err = p.emb.Prepare(nativeSQL); err != nil {
		return err
	}
	if p.agg, err = newInterpFn(p.db, udfName); err != nil {
		return err
	}
	p.mapf, err = newInterpFn(p.db, "square_vec")
	return err
}

func (p *udfPhase) close() {
	if p.cli != nil {
		p.cli.Close()
	}
	p.srv.Close()
}

func (p *udfPhase) warm(rec *recorder) {
	p.cur.driveN(6, func(o op) { p.do(o, rec, nil) })
}

func (p *udfPhase) run(budget time.Duration, rec *recorder, tr *tracer) (int, time.Duration) {
	return p.cur.driveFor(budget, func(o op) { p.do(o, rec, tr) })
}

func (p *udfPhase) do(o op, rec *recorder, tr *tracer) {
	cls := int(o.Class)
	d := p.fx.data
	rec.attempted++
	var tbl *storage.Table
	var err error
	t0 := time.Now()
	switch cls {
	case clsPyAgg:
		_, tbl, err = p.cli.Query(ctx, pyAggSQL)
	case clsPyMap:
		_, tbl, err = p.cli.Query(ctx, pyMapSQL)
	case clsNativeScan:
		_, tbl, err = p.native.Query(ctx, o.A)
	}
	took := time.Since(t0)
	if err == nil && (tbl == nil || len(tbl.Cols) != 1) {
		err = fmt.Errorf("malformed result")
	}
	if err == nil {
		col := tbl.Cols[0]
		switch cls {
		case clsPyAgg:
			if col.Len() != 1 || math.Abs(col.Flts[0]-p.aggWant) > 1e-9 {
				err = fmt.Errorf("mean deviation %v, want %v", col.Flts, p.aggWant)
			}
		case clsPyMap:
			var sum int64
			for _, v := range col.Ints {
				sum += v
			}
			if col.Len() != numbersSRows || sum != d.smallSq {
				err = fmt.Errorf("%d rows sum %d, want %d rows sum %d", col.Len(), sum, numbersSRows, d.smallSq)
			}
		case clsNativeScan:
			if col.Len() != 1 || col.Ints[0] != d.bigSqBelow[o.A] {
				err = fmt.Errorf("i<%d: sum %v, want %d", o.A, col.Ints, d.bigSqBelow[o.A])
			}
		}
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
	case clsPyAgg:
		var arg script.Value
		tr.child("pyrt.convert_in", 1, func() error { arg = pyrt.ColumnToValue(intColumn("i", d.numbers), true); return nil })
		tr.child("script.interp_agg", 1, func() error { _, err := p.agg.call(arg); return err })
	case clsPyMap:
		var arg, out script.Value
		var col *storage.Column
		var enc []byte
		tr.child("pyrt.convert_in", 1, func() error { arg = pyrt.ColumnToValue(intColumn("i", d.small), true); return nil })
		tr.child("script.interp_map", 1, func() (err error) { out, err = p.mapf.call(arg); return })
		tr.child("pyrt.convert_out", 1, func() (err error) { col, err = pyrt.ValueToColumn(out, "result", storage.TInt); return })
		if col == nil {
			return
		}
		res := &storage.Table{Name: "result", Cols: []*storage.Column{col}}
		tr.child("wire.result_encode", 1, func() error { enc = wire.EncodeResult("", res); return nil })
		tr.child("wire.result_decode", 1, func() error { _, _, err := wire.DecodeResult(enc); return err })
	case clsNativeScan:
		tr.child("engine.native_scan", 1, func() error { _, err := p.embNative.Query(o.A); return err })
	}
}

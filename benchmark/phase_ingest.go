package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/storage"
	"repro/internal/wal"
	"repro/monetlite"
)

const (
	createEventsSQL = `CREATE TABLE events (id INTEGER, k INTEGER, v DOUBLE)`
	insertSQL       = `INSERT INTO events VALUES (?,?,?)`
	readSQL         = `SELECT COUNT(*) AS n, SUM(v) AS s FROM dim WHERE k >= ? AND k < ?`
	eventsCheckSQL  = `SELECT COUNT(*) AS n, SUM(id) AS s FROM events`
	// snapshotBytes is lowered from the 8 MiB default so that a focus phase
	// completes at least four automatic checkpoints.
	snapshotBytes = 1 << 20
)

// ingestPhase is ingest_mixed: a WAL-backed database, one writer connection
// inserting into events and one reader connection aggregating ranges of a
// static table in the same database, so both meet on db.mu.
//
// Flush policy, the same on both sides of any comparison: wal.SyncInterval
// at its default 50 ms cadence (records reach the kernel at commit and are
// fsync'd in the background), automatic checkpoints every snapshotBytes of
// log.
type ingestPhase struct {
	*node
	fx     *fixture
	wal    *wal.Manager
	wcur   cursor
	rcur   cursor
	writer *monetlite.Client
	reader *monetlite.Client
	insert *monetlite.ClientStmt
	read   *monetlite.ClientStmt

	// What the writer saw acknowledged: the durability check's reference.
	ackRows int64
	ackSum  int64
	nextID  int64

	recoverLat    []int64 // wal.Open on the copied directory, set by verify
	setupWALBytes float64 // log bytes written before the traced run began
	setupRows     int64   // rows inserted before the traced run began
}

func newIngestPhase(fx *fixture, dir string) error {
	p := &ingestPhase{node: newNode(fx.traced), fx: fx,
		wcur: cursor{seed: fx.seed, stream: phIngest, ref: fx.ref}, rcur: cursor{seed: fx.seed, stream: streamReader}}
	fx.ing, fx.phases[phIngest] = p, p
	var err error
	if p.wal, err = wal.Open(filepath.Join(dir, "wal"), p.db, wal.Options{SnapshotBytes: snapshotBytes}); err != nil {
		return err
	}
	if fx.traced {
		p.wal.EnableObs(p.reg)
	}
	k := make([]int64, dimRows)
	for i := range k {
		k[i] = int64(i)
	}
	if err = p.table("dim", intColumn("k", k), floatColumn("v", fx.data.dimV)); err != nil {
		return err
	}
	if err = p.exec(createEventsSQL); err != nil {
		return err
	}
	if err = p.listen(); err != nil {
		return err
	}
	if p.writer, err = monetlite.DialContext(ctx, p.params); err != nil {
		return err
	}
	if p.reader, err = monetlite.DialContext(ctx, p.params); err != nil {
		return err
	}
	if p.insert, err = p.writer.Prepare(ctx, insertSQL); err != nil {
		return err
	}
	p.read, err = p.reader.Prepare(ctx, readSQL)
	return err
}

func (p *ingestPhase) close() {
	if p.writer != nil {
		p.writer.Close()
	}
	if p.reader != nil {
		p.reader.Close()
	}
	p.srv.Close()
	if p.wal != nil {
		_ = p.wal.Close()
	}
}

func (p *ingestPhase) warm(rec *recorder) {
	p.wcur.driveN(3*ingestBlock, func(o op) { p.write(o, rec, nil) })
	p.rcur.driveN(ingestBlock, func(o op) { p.readOp(o, rec) })
	if p.reg != nil {
		p.setupWALBytes = scrape(p.reg).Value("wal_append_bytes_total", nil)
		p.setupRows = p.ackRows
	}
}

// run drives the writer for the budget while the reader loops beside it on
// its own connection and goroutine until the writer is done. It returns the
// writer's operations only.
func (p *ingestPhase) run(budget time.Duration, rec *recorder, tr *tracer) (int, time.Duration) {
	writerDone := make(chan struct{})
	readerDone := make(chan struct{})
	var rrec recorder
	go func() {
		defer close(readerDone)
		p.rcur.drive(func() bool {
			select {
			case <-writerDone:
				return true
			default:
				return false
			}
		}, func(o op) { p.readOp(o, &rrec) })
	}()
	n, wall := p.wcur.driveFor(budget, func(o op) { p.write(o, rec, tr) })
	close(writerDone)
	<-readerDone
	rec.merge(&rrec)
	return n, wall
}

func (p *ingestPhase) write(o op, rec *recorder, tr *tracer) {
	cls := int(o.Class)
	rec.attempted++
	rows, sum := int64(1), p.nextID
	var msg string
	var err error
	var t0 time.Time
	if cls == clsInsert {
		t0 = time.Now()
		msg, err = p.insert.Exec(ctx, p.nextID, o.A, o.X)
	} else {
		var sb strings.Builder
		sb.WriteString("INSERT INTO events VALUES ")
		rows, sum = batchRows, 0
		for j := int64(0); j < batchRows; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,%d,%.2f)", p.nextID+j, (o.A+j)%1000, o.X+float64(j))
			sum += p.nextID + j
		}
		sql := sb.String()
		t0 = time.Now()
		msg, err = p.writer.Exec(ctx, sql)
	}
	d := time.Since(t0)
	p.nextID += rows
	if want := fmt.Sprintf("INSERT %d", rows); err == nil && msg != want {
		err = fmt.Errorf("status %q, want %q", msg, want)
	}
	if err != nil {
		rec.fail(classNames[cls], "%v", err)
		return
	}
	p.ackRows += rows
	p.ackSum += sum
	rec.add(cls, d)
	if tr.sample(cls) {
		tr.begin(cls, t0, d)
	}
}

func (p *ingestPhase) readOp(o op, rec *recorder) {
	rec.attempted++
	t0 := time.Now()
	_, tbl, err := p.read.Query(ctx, o.A, o.B)
	d := time.Since(t0)
	if err == nil {
		want := p.fx.data.dimPrefix[o.B] - p.fx.data.dimPrefix[o.A]
		if tbl == nil || len(tbl.Cols) != 2 || tbl.NumRows() != 1 {
			err = fmt.Errorf("malformed result")
		} else if n, s := tbl.Cols[0].Ints[0], tbl.Cols[1].Flts[0]; n != o.B-o.A || math.Abs(s-want) > 1e-6 {
			err = fmt.Errorf("k in [%d,%d): count %d sum %v, want %d and %v", o.A, o.B, n, s, o.B-o.A, want)
		}
	}
	if err != nil {
		rec.fail(classNames[clsRead], "%v", err)
		return
	}
	rec.add(clsRead, d)
}

// verify closes the phase's books: the live table, and a copy of the data
// directory recovered into a fresh database, must both hold exactly the rows
// the writer saw acknowledged. The copy is taken without Manager.Close — the
// state a kill -9 would leave behind, unflushed application buffers and all
// (the OS cache survives a process kill, so this checks the commit path, not
// the disk). Each check counts as one operation.
func (p *ingestPhase) verify(rec *recorder, dir string) {
	rec.attempted += 2
	_, tbl, err := p.writer.Query(ctx, eventsCheckSQL)
	if err == nil {
		err = p.matchesAcked(tbl)
	}
	if err != nil {
		rec.fail("events check", "live table: %v", err)
	}
	// A background checkpoint may purge files under the copy; copy again.
	for attempt := 0; ; attempt++ {
		if err = p.recoverCopy(filepath.Join(dir, fmt.Sprintf("recover-%d", attempt))); err == nil || attempt == 4 {
			break
		}
	}
	if err != nil {
		rec.fail("events check", "durability: %v", err)
	}
}

// matchesAcked checks an eventsCheckSQL result against what the writer saw
// acknowledged.
func (p *ingestPhase) matchesAcked(tbl *storage.Table) error {
	if tbl == nil || len(tbl.Cols) != 2 || tbl.NumRows() != 1 {
		return fmt.Errorf("malformed events check result")
	}
	rows, sum := tbl.Cols[0].Ints[0], int64(0)
	if !tbl.Cols[1].IsNull(0) { // SUM over no rows is NULL
		sum = tbl.Cols[1].Ints[0]
	}
	if rows != p.ackRows || sum != p.ackSum {
		return fmt.Errorf("events holds %d rows with SUM(id) %d, acknowledged %d rows with SUM(id) %d",
			rows, sum, p.ackRows, p.ackSum)
	}
	return nil
}

func (p *ingestPhase) recoverCopy(to string) error {
	defer os.RemoveAll(to)
	if err := copyDir(p.wal.Dir(), to); err != nil {
		return err
	}
	db := monetlite.NewDB()
	t0 := time.Now()
	m, err := wal.Open(to, db, wal.Options{SnapshotBytes: -1})
	if err != nil {
		return err
	}
	p.recoverLat = append(p.recoverLat, int64(time.Since(t0)))
	defer m.Close()
	res, err := monetlite.Connect(db, dbUser, dbPassword).Exec(eventsCheckSQL)
	if err != nil {
		return err
	}
	return p.matchesAcked(res.Table)
}

func copyDir(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func dirSize(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

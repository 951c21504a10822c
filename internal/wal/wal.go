// Package wal gives the embedded engine durable storage: an append-only,
// checksummed write-ahead log of logical records combined with periodic
// compressed columnar snapshots (the V2 dump format) and crash recovery.
//
// Layout of a data directory:
//
//	wal-0000000001.log    log segments, one per snapshot generation
//	wal-0000000002.log
//	snap-0000000002.dump  snapshot of the state at the START of segment 2
//
// Every committed mutation (DDL, INSERT/COPY batches, CREATE/DROP
// FUNCTION, Go-UDF registration markers) is appended to the active
// segment as one framed record — u32 payload length, u32 CRC-32C, payload
// — via the persistence hook the manager installs on engine.DB, while the
// database lock is still held: a statement only succeeds once its record
// is in the log. A checkpoint (manual DB.Checkpoint, or automatic once
// SnapshotBytes of log accumulate) rotates to a fresh segment, writes a
// snapshot tagged with the new segment's sequence number temp-then-rename,
// and purges segments older than the retained snapshots.
//
// Recovery at Open: the newest readable snapshot is restored
// (all-or-nothing), every segment at or after its sequence number is
// replayed in order, and a torn tail on the final segment — a partial or
// corrupt trailing record from a crash mid-append — is truncated rather
// than treated as fatal. Corruption anywhere else refuses to open.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dump"
	"repro/internal/engine"
	"repro/internal/storage"
)

const (
	segMagic     = "MLWAL1\n\x00"
	segHeaderLen = len(segMagic) + 8 // magic + u64 sequence number
	recHeaderLen = 8                 // u32 payload length + u32 CRC-32C
	maxRecordLen = 1 << 30

	// DefaultSnapshotBytes is the log volume that triggers an automatic
	// checkpoint.
	DefaultSnapshotBytes = 8 << 20
	// syncInterval is the group-commit fsync cadence of SyncInterval.
	syncInterval = 50 * time.Millisecond
	// retainSnapshots is how many snapshot generations survive a purge: the
	// newest plus one fallback, so recovery can step back a generation if
	// the newest file turns out unreadable.
	retainSnapshots = 2
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SyncMode selects when appended records are fsync'd.
type SyncMode int

const (
	// SyncInterval (the default) groups commits: records are written to the
	// kernel at commit (surviving a process kill) and fsync'd in the
	// background every 50 ms, syncInterval (bounding loss on power failure).
	SyncInterval SyncMode = iota
	// SyncAlways fsyncs every append before the statement returns.
	SyncAlways
	// SyncNever leaves all fsync scheduling to the OS.
	SyncNever
)

// Options tune a Manager. The zero value selects the defaults.
type Options struct {
	// SnapshotBytes triggers an automatic checkpoint once that much log has
	// accumulated since the last one (0 = DefaultSnapshotBytes, negative =
	// never automatically).
	SnapshotBytes int64
	// Sync selects the fsync policy for appends.
	Sync SyncMode
	// Logf receives recovery and background-checkpoint diagnostics.
	Logf func(format string, args ...any)
}

// Manager owns one data directory: the active WAL segment, checkpointing,
// and the persistence hooks installed on the database. Lock order is
// db.mu → Manager.mu (appends arrive holding db.mu; checkpoints take
// db.Lock first).
type Manager struct {
	dir  string
	db   *engine.DB
	opts Options

	mu      sync.Mutex
	f       *os.File // active segment, nil after Close
	seq     uint64   // active segment sequence number
	bytes   int64    // log bytes appended since the last checkpoint
	dirty   bool     // unsynced appends outstanding (SyncInterval)
	scratch []byte   // reusable frame buffer for appendChange

	checkpointing atomic.Bool // auto-checkpoint single-flight
	stop          chan struct{}
	flusherDone   chan struct{}

	// metrics is set once by EnableObs before traffic and read without
	// synchronization afterwards; nil keeps the hot paths untouched.
	metrics *walMetrics
}

// Open recovers the database state persisted in dir (creating it if
// needed), replays the WAL tail into db, and installs the persistence
// hooks so every later commit is logged. The db should be empty.
func Open(dir string, db *engine.DB, opts Options) (*Manager, error) {
	if opts.SnapshotBytes == 0 {
		opts.SnapshotBytes = DefaultSnapshotBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, core.Wrapf(core.KindIO, err, "create data dir: %v", err)
	}
	m := &Manager{dir: dir, db: db, opts: opts, stop: make(chan struct{}), flusherDone: make(chan struct{})}
	if err := m.recover(); err != nil {
		return nil, err
	}
	db.SetPersistence(m.appendChange, m.Checkpoint)
	if opts.Sync == SyncInterval {
		go m.flusher()
	} else {
		close(m.flusherDone)
	}
	return m, nil
}

// Dir returns the data directory.
func (m *Manager) Dir() string { return m.dir }

// Close uninstalls the hooks, fsyncs and closes the active segment. It
// does not checkpoint; call DB.Checkpoint first for a clean shutdown that
// starts back up without replay.
func (m *Manager) Close() error {
	m.db.SetPersistence(nil, nil)
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.flusherDone
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.f == nil {
		return nil
	}
	err := m.f.Sync()
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	m.f = nil
	if err != nil {
		return core.Wrapf(core.KindIO, err, "close wal segment: %v", err)
	}
	return nil
}

// Sync forces an fsync of the active segment.
func (m *Manager) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncLocked()
}

func (m *Manager) syncLocked() error {
	if m.f == nil {
		return nil
	}
	if err := m.metrics.timeFsync(m.f.Sync); err != nil {
		return core.Wrapf(core.KindIO, err, "fsync wal: %v", err)
	}
	m.dirty = false
	return nil
}

// flusher is the SyncInterval group-commit loop.
func (m *Manager) flusher() {
	defer close(m.flusherDone)
	t := time.NewTicker(syncInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.mu.Lock()
			if m.dirty {
				if err := m.syncLocked(); err != nil {
					m.logf("wal: background fsync: %v", err)
				}
			}
			m.mu.Unlock()
		}
	}
}

func (m *Manager) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

// appendChange is the persistence hook: serialize one committed change and
// append it to the active segment. Called with db.mu held.
func (m *Manager) appendChange(ch engine.Change) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.f == nil {
		return core.Errorf(core.KindIO, "wal is closed")
	}
	// Encode into the reserved-header scratch buffer, then backfill length
	// and checksum: one buffer, reused across appends, one write().
	if m.scratch == nil {
		m.scratch = make([]byte, recHeaderLen, 4096)
	}
	frame, err := encodeChange(m.scratch[:recHeaderLen], ch)
	if err != nil {
		return err
	}
	m.scratch = frame[:recHeaderLen]
	payload := frame[recHeaderLen:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	if _, err := m.f.Write(frame); err != nil {
		// The segment tail is now suspect; recovery's torn-tail truncation
		// handles whatever fraction of the frame made it to disk.
		return core.Wrapf(core.KindIO, err, "append wal record: %v", err)
	}
	if m.opts.Sync == SyncAlways {
		if err := m.syncLocked(); err != nil {
			return err
		}
	} else {
		m.dirty = true
	}
	m.metrics.observeAppend(len(frame))
	m.bytes += int64(len(frame))
	if m.opts.SnapshotBytes > 0 && m.bytes >= m.opts.SnapshotBytes &&
		m.checkpointing.CompareAndSwap(false, true) {
		// One-shot checkpoint, serialized by the checkpointing CAS.
		go func() {
			defer m.checkpointing.Store(false)
			if err := m.Checkpoint(); err != nil {
				m.logf("wal: background checkpoint: %v", err)
			}
		}()
	}
	return nil
}

// Checkpoint writes a snapshot of the current state, rotates the log to a
// fresh segment, and purges segments older than the retained snapshots.
// Safe to call concurrently with queries; it serializes on the database
// lock.
func (m *Manager) Checkpoint() error {
	return m.db.Lock(func(cat *storage.Catalog) error {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.checkpointLocked(cat)
	})
}

func (m *Manager) checkpointLocked(cat *storage.Catalog) error {
	if m.f == nil {
		return core.Errorf(core.KindIO, "wal is closed")
	}
	newSeq := m.seq + 1
	// 1. Open the next segment. Until the snapshot rename lands, recovery
	// still uses the previous snapshot and replays through this (empty)
	// segment, so every crash window stays consistent.
	nf, err := m.createSegment(newSeq)
	if err != nil {
		return err
	}
	// 2. Snapshot the catalog, temp-then-rename. A crash mid-write leaves
	// a *.tmp file that Open sweeps; the previous snapshot is never touched.
	snap, err := dump.EncodeCatalog(cat)
	if err == nil {
		err = WriteFileAtomic(m.snapPath(newSeq), snap)
	}
	if err != nil {
		// Abandon the rotation: keep appending to the current segment and
		// remove the orphan so the next attempt can recreate it (O_EXCL).
		nf.Close()
		os.Remove(m.segPath(newSeq))
		return err
	}
	// 3. Retire the old segment and swap in the new one.
	if err := m.f.Sync(); err != nil {
		m.logf("wal: fsync retired segment: %v", err)
	}
	_ = m.f.Close()
	m.f, m.seq, m.bytes, m.dirty = nf, newSeq, 0, false
	if w := m.metrics; w != nil {
		w.checkpoints.Inc()
	}
	// 4. Purge generations no retained snapshot needs. Best-effort: stale
	// files cost disk, not correctness.
	m.purge(newSeq)
	return nil
}

// purge removes snapshots beyond the retention count and segments older
// than the oldest retained snapshot.
func (m *Manager) purge(newest uint64) {
	snaps, segs, _, err := m.scan()
	if err != nil {
		m.logf("wal: purge scan: %v", err)
		return
	}
	keepFrom := newest
	if len(snaps) > retainSnapshots {
		keepFrom = snaps[len(snaps)-retainSnapshots]
		for _, seq := range snaps[:len(snaps)-retainSnapshots] {
			if err := os.Remove(m.snapPath(seq)); err != nil {
				m.logf("wal: purge snapshot %d: %v", seq, err)
			}
		}
	} else if len(snaps) > 0 {
		keepFrom = snaps[0]
	}
	for _, seq := range segs {
		if seq < keepFrom {
			if err := os.Remove(m.segPath(seq)); err != nil {
				m.logf("wal: purge segment %d: %v", seq, err)
			}
		}
	}
}

func (m *Manager) segPath(seq uint64) string {
	return filepath.Join(m.dir, fmt.Sprintf("wal-%010d.log", seq))
}

func (m *Manager) snapPath(seq uint64) string {
	return filepath.Join(m.dir, fmt.Sprintf("snap-%010d.dump", seq))
}

// scan lists the directory's snapshot and segment sequence numbers
// (ascending) and any leftover temp files.
func (m *Manager) scan() (snaps, segs []uint64, tmps []string, err error) {
	ents, err := os.ReadDir(m.dir)
	if err != nil {
		return nil, nil, nil, core.Wrapf(core.KindIO, err, "scan data dir: %v", err)
	}
	for _, e := range ents {
		name := e.Name()
		var seq uint64
		switch {
		case matchSeq(name, "wal-", ".log", &seq):
			segs = append(segs, seq)
		case matchSeq(name, "snap-", ".dump", &seq):
			snaps = append(snaps, seq)
		case strings.Contains(name, ".tmp"):
			tmps = append(tmps, filepath.Join(m.dir, name))
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return snaps, segs, tmps, nil
}

func matchSeq(name, prefix, suffix string, seq *uint64) bool {
	if len(name) != len(prefix)+10+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	var v uint64
	for i := 0; i < len(digits); i++ {
		d := digits[i]
		if d < '0' || d > '9' {
			return false
		}
		v = v*10 + uint64(d-'0')
	}
	*seq = v
	return true
}

// recover restores the newest valid snapshot, replays the WAL tail, and
// opens a fresh active segment.
func (m *Manager) recover() error {
	snaps, segs, tmps, err := m.scan()
	if err != nil {
		return err
	}
	// Interrupted atomic writes leave temp files; they were never part of
	// the durable state.
	for _, p := range tmps {
		if err := os.Remove(p); err != nil {
			m.logf("wal: remove stale temp %s: %v", p, err)
		}
	}
	// Newest snapshot that restores cleanly wins; an unreadable one falls
	// back a generation (dump.Restore is all-or-nothing, so a failed
	// attempt leaves the database empty for the next). Persistence is not
	// installed yet, so restoring logs nothing.
	var start uint64
	restored := false
	for i := len(snaps) - 1; i >= 0; i-- {
		seq := snaps[i]
		f, err := os.Open(m.snapPath(seq))
		if err == nil {
			err = dump.Restore(m.db, f)
			f.Close()
		}
		if err == nil {
			start, restored = seq, true
			break
		}
		m.logf("wal: snapshot %d unusable (%v); falling back", seq, err)
	}
	// Snapshots present but none restorable means the log's prefix is
	// unreachable: starting empty here would replay a suffix over the wrong
	// base and silently lose data.
	if len(snaps) > 0 && !restored {
		return core.Errorf(core.KindIO, "no snapshot in %s is readable; refusing to start empty", m.dir)
	}
	// Likewise, with no snapshot at all the log must reach back to the
	// first segment.
	if !restored && len(segs) > 0 && segs[0] != 1 {
		return core.Errorf(core.KindIO, "wal starts at segment %d with no snapshot; refusing to start empty", segs[0])
	}
	// Replay segments from the snapshot's generation forward. They must be
	// contiguous: a hole means committed records are gone, which recovery
	// must refuse to paper over.
	var replay []uint64
	for _, seq := range segs {
		if seq >= start {
			replay = append(replay, seq)
		}
	}
	for i, seq := range replay {
		if i > 0 && seq != replay[i-1]+1 {
			return core.Errorf(core.KindIO, "missing wal segment %d (have %d then %d)", replay[i-1]+1, replay[i-1], seq)
		}
		if err := m.replaySegment(seq, i == len(replay)-1); err != nil {
			return err
		}
	}
	// Open a fresh active segment past everything seen.
	next := start + 1
	if n := len(segs); n > 0 && segs[n-1]+1 > next {
		next = segs[n-1] + 1
	}
	f, err := m.createSegment(next)
	if err != nil {
		return err
	}
	m.f, m.seq = f, next
	return nil
}

// createSegment creates and fsyncs a new empty segment file (header only)
// and fsyncs the directory so the file itself survives a crash.
func (m *Manager) createSegment(seq uint64) (*os.File, error) {
	path := m.segPath(seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, core.Wrapf(core.KindIO, err, "create wal segment: %v", err)
	}
	hdr := make([]byte, 0, segHeaderLen)
	hdr = append(hdr, segMagic...)
	hdr = binary.BigEndian.AppendUint64(hdr, seq)
	if _, err := f.Write(hdr); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, core.Wrapf(core.KindIO, err, "init wal segment: %v", err)
	}
	if err := syncDir(m.dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// replaySegment applies every intact record of one segment to the
// database. last marks the final segment, whose torn tail (crash
// mid-append) is truncated away and whose torn header (crash mid-create)
// is rewritten; anywhere else corruption is fatal.
func (m *Manager) replaySegment(seq uint64, last bool) error {
	path := m.segPath(seq)
	data, err := os.ReadFile(path)
	if err != nil {
		return core.Wrapf(core.KindIO, err, "read wal segment: %v", err)
	}
	if last && len(data) < segHeaderLen {
		// A crash inside createSegment: the header never reached the disk
		// whole, so no record was appended, let alone acknowledged. Rewrite
		// it, or it refuses the next start, when it is no longer final.
		m.logf("wal: recreating segment %d, cut short inside its %d-byte header (%d bytes)", seq, segHeaderLen, len(data))
		if err := os.Remove(path); err != nil {
			return core.Wrapf(core.KindIO, err, "remove headerless wal segment: %v", err)
		}
		f, err := m.createSegment(seq)
		if err != nil {
			return err
		}
		return f.Close()
	}
	if len(data) < segHeaderLen || string(data[:len(segMagic)]) != segMagic {
		return core.Errorf(core.KindIO, "wal segment %d: bad header", seq)
	}
	if got := binary.BigEndian.Uint64(data[len(segMagic):segHeaderLen]); got != seq {
		return core.Errorf(core.KindIO, "wal segment %d: header names sequence %d", seq, got)
	}
	off := segHeaderLen
	for off < len(data) {
		rest := data[off:]
		torn := ""
		var payload []byte
		if len(rest) < recHeaderLen {
			torn = "partial record header"
		} else {
			n := int(binary.BigEndian.Uint32(rest))
			want := binary.BigEndian.Uint32(rest[4:])
			switch {
			case n > maxRecordLen:
				torn = "implausible record length"
			case len(rest) < recHeaderLen+n:
				torn = "partial record body"
			default:
				payload = rest[recHeaderLen : recHeaderLen+n]
				if crc32.Checksum(payload, crcTable) != want {
					torn = "checksum mismatch"
				}
			}
		}
		if torn != "" {
			if !last {
				return core.Errorf(core.KindIO, "wal segment %d: %s at offset %d in a non-final segment", seq, torn, off)
			}
			m.logf("wal: truncating torn tail of segment %d at offset %d (%s)", seq, off, torn)
			if err := os.Truncate(path, int64(off)); err != nil {
				return core.Wrapf(core.KindIO, err, "truncate torn wal tail: %v", err)
			}
			return nil
		}
		ch, err := decodeChange(payload)
		if err != nil {
			return core.Wrapf(core.KindIO, err, "wal segment %d offset %d: %v", seq, off, err)
		}
		if err := m.db.ApplyChange(ch); err != nil {
			return core.Wrapf(core.KindIO, err, "replay wal segment %d offset %d: %v", seq, off, err)
		}
		off += recHeaderLen + len(payload)
	}
	return nil
}

// encodeChange serializes one logical record: a kind byte then a
// kind-specific body in the shared storage codec (function definitions use
// the V2 dump form so IDs survive).
// encodeChange appends the record payload for ch to buf. Append-style so
// the hot commit path can reuse one scratch buffer across appends instead
// of allocating per statement.
func encodeChange(buf []byte, ch engine.Change) ([]byte, error) {
	buf = append(buf, byte(ch.Kind))
	switch ch.Kind {
	case engine.ChangeCreateTable:
		buf = storage.EncodeTable(buf, ch.Table)
	case engine.ChangeDropTable, engine.ChangeDropFunction:
		buf = storage.AppendString(buf, ch.Name)
	case engine.ChangeInsert:
		// The encoded table carries the target's name. With a [From, To)
		// range the batch rows serialize straight off the live table — the
		// common commit shape, kept copy-free.
		if ch.To > ch.From {
			buf = storage.EncodeTableRange(buf, ch.Table, ch.From, ch.To)
		} else {
			buf = storage.EncodeTable(buf, ch.Table)
		}
	case engine.ChangeCreateFunction, engine.ChangeRegisterGoUDF:
		if ch.Replace {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = dump.AppendFuncDef(buf, ch.Func)
	default:
		return nil, core.Errorf(core.KindIO, "unloggable change kind %d", ch.Kind)
	}
	return buf, nil
}

func decodeChange(payload []byte) (engine.Change, error) {
	var ch engine.Change
	if len(payload) == 0 {
		return ch, core.Errorf(core.KindIO, "empty wal record")
	}
	ch.Kind = engine.ChangeKind(payload[0])
	br := storage.NewByteReader(payload[1:])
	var err error
	switch ch.Kind {
	case engine.ChangeCreateTable:
		ch.Table, err = storage.DecodeTable(br)
	case engine.ChangeDropTable, engine.ChangeDropFunction:
		ch.Name, err = br.Str()
	case engine.ChangeInsert:
		if ch.Table, err = storage.DecodeTable(br); err == nil {
			ch.Name = ch.Table.Name
		}
	case engine.ChangeCreateFunction, engine.ChangeRegisterGoUDF:
		var rep byte
		if rep, err = br.U8(); err == nil {
			if rep > 1 {
				return ch, core.Errorf(core.KindIO, "invalid replace flag %d", rep)
			}
			ch.Replace = rep == 1
			ch.Func, err = dump.ReadFuncDef(br)
		}
	default:
		return ch, core.Errorf(core.KindIO, "unknown wal record kind %d", payload[0])
	}
	if err != nil {
		return ch, err
	}
	if br.Remaining() != 0 {
		return ch, core.Errorf(core.KindIO, "trailing bytes in wal record")
	}
	return ch, nil
}

// WriteFileAtomic replaces path with data crash-safely: write to a
// same-directory temp file, fsync it, rename over path, fsync the
// directory. A failure at any step leaves the previous file intact.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return core.Wrapf(core.KindIO, err, "create temp for %s: %v", path, err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(core.Wrapf(core.KindIO, err, "write %s: %v", tmpName, err))
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(core.Wrapf(core.KindIO, err, "fsync %s: %v", tmpName, err))
	}
	if err := tmp.Chmod(0o644); err != nil {
		return cleanup(core.Wrapf(core.KindIO, err, "chmod %s: %v", tmpName, err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return core.Wrapf(core.KindIO, err, "close %s: %v", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return core.Wrapf(core.KindIO, err, "rename %s: %v", tmpName, err)
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return core.Wrapf(core.KindIO, err, "open dir for fsync: %v", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return core.Wrapf(core.KindIO, err, "fsync dir %s: %v", dir, err)
	}
	return nil
}

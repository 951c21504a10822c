package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// FuzzReplaySegment hands arbitrary bytes to recovery as segment 1 of a data
// directory, as the final segment or as one with a successor. Properties:
// no panic; a refusal is a *core.Error; replay allocates no more than a
// small multiple of the file; and a final segment that replays cleanly —
// torn tail cut, torn header rewritten — is left in a state the next start
// accepts when the segment is no longer final. That last one is the bug a
// header-less final segment used to be: repaired for this start, fatal for
// the one after.
func FuzzReplaySegment(f *testing.F) {
	// Seeds: a real segment, every prefix that ends on a record boundary,
	// a cut inside each record, and cuts inside the 16-byte header.
	dir := f.TempDir()
	db := engine.NewDB()
	m, err := Open(dir, db, Options{SnapshotBytes: -1, Sync: SyncNever})
	if err != nil {
		f.Fatal(err)
	}
	conn := &engine.Conn{DB: db, User: "u", Password: "p"}
	for _, sql := range workload {
		if _, err := conn.Exec(sql); err != nil {
			f.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(m.segPath(1))
	if err != nil {
		f.Fatal(err)
	}
	for _, final := range []bool{true, false} {
		f.Add(seg, final)
		for off := segHeaderLen; off < len(seg); {
			f.Add(seg[:off], final)
			f.Add(seg[:off+recHeaderLen/2], final)
			f.Add(seg[:off+recHeaderLen+1], final)
			off += recHeaderLen + int(binary.BigEndian.Uint32(seg[off:]))
		}
		for _, n := range []int{0, 1, len(segMagic), segHeaderLen - 1} {
			f.Add(seg[:n], final)
		}
		// records with a good checksum around tables no encoder writes
		f.Add(withRecord(seg, engine.ChangeCreateTable, raggedTable("hostile")), final)
		f.Add(withRecord(seg, engine.ChangeInsert, raggedTable("nums")), final)
		f.Add(withRecord(seg, engine.ChangeCreateTable, badBoolTable("hostile")), final)
	}

	f.Fuzz(func(t *testing.T, data []byte, final bool) {
		replay := func(m *Manager, last bool) error {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := m.replaySegment(1, last)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+(1<<20)); got > limit {
				t.Fatalf("replay of a %d-byte segment allocated %d bytes (limit %d)", len(data), got, limit)
			}
			var ce *core.Error
			if err != nil && !errors.As(err, &ce) {
				t.Fatalf("replay error carries no core.Kind: %T %v", err, err)
			}
			return err
		}
		m := &Manager{dir: t.TempDir(), db: engine.NewDB()}
		if err := os.WriteFile(m.segPath(1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := replay(m, final); err != nil || !final {
			return
		}
		next := &Manager{dir: m.dir, db: engine.NewDB()}
		if err := replay(next, false); err != nil {
			t.Fatalf("a final segment that replayed cleanly is refused once it has a successor: %v", err)
		}
	})
}

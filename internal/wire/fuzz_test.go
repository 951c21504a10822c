package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"

	"repro/internal/core"
	"repro/internal/storage"
)

// The two fuzzers below cover every byte decoder a socket feeds. Shared
// properties: no panic; a failure is a *core.Error (so it reaches the peer
// and the log with a kind); and decoding allocates no more than a small
// multiple of the input, so a short hostile payload cannot claim its way to
// a large buffer.

// A decoder may allocate allocFactor bytes per input byte (a 4-byte length
// prefix becomes a 16-byte string header, append doubles) plus allocSlack,
// which absorbs what the runtime and the fuzz worker allocate on other
// goroutines meanwhile.
const (
	allocFactor = 64
	allocSlack  = 1 << 20
)

// allocatedBy runs fn and returns the heap bytes allocated meanwhile.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func requireKind(t *testing.T, what string, err error) {
	t.Helper()
	var ce *core.Error
	if err != nil && !errors.As(err, &ce) {
		t.Fatalf("%s: error carries no core.Kind: %T %v", what, err, err)
	}
}

// framesOf reads r as a connection's reader does, frame after frame through
// one bufio.Reader, until a read fails.
func framesOf(r io.Reader) (frames [][]byte, err error) {
	br := bufio.NewReader(r)
	for {
		typ, payload, err := ReadFrame(br)
		if err != nil {
			return frames, err
		}
		frames = append(frames, append([]byte{typ}, payload...))
	}
}

// FuzzReadFrame feeds a byte stream to both frame readers: ReadFrame, which
// trusts an authenticated peer up to maxFrame but reserves only what has
// arrived, and the pre-auth reader, which must refuse from the header alone
// anything over maxAuthFrame. Then it reads the whole stream the way a
// connection does — every frame in it through one buffered reader — twice:
// handed over in one piece and a byte at a time, which must come to the same
// frames.
func FuzzReadFrame(f *testing.F) {
	var framed bytes.Buffer
	_ = WriteFrame(&framed, MsgAuth, EncodeAuth("monetdb", "secret", "demo", ProtoV2))
	auth := framed.Bytes()
	f.Add(auth)
	f.Add(auth[:3])                                            // cut inside the header
	f.Add(auth[:len(auth)-1])                                  // cut inside the body
	f.Add([]byte{0, 0, 0, 0})                                  // zero length
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame))        // 64 MiB claimed, nothing sent
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1))      // over the frame cap
	f.Add(binary.BigEndian.AppendUint32(nil, maxAuthFrame+1))  // just over the pre-auth cap
	f.Add(append(binary.BigEndian.AppendUint32(nil, 1), 0xFF)) // type byte only
	ping := []byte{0, 0, 0, 1, MsgPing}
	f.Add(join(auth, ping))                                           // two frames in one segment
	f.Add(join(ping, auth, []byte{0, 0}))                             // a third frame cut inside its header
	f.Add(join(binary.BigEndian.AppendUint32(nil, 2*bodyStep), ping)) // past the first reservation, body cut short
	f.Fuzz(func(t *testing.T, data []byte) {
		var claimed uint32
		if len(data) >= 4 {
			claimed = binary.BigEndian.Uint32(data)
		}

		var typ byte
		var payload []byte
		var err error
		capped := allocatedBy(func() {
			typ, payload, err = readFrameMax(bytes.NewReader(data), maxAuthFrame)
		})
		if capped > maxAuthFrame+allocSlack {
			t.Fatalf("pre-auth read of %d bytes allocated %d", len(data), capped)
		}
		if claimed > maxAuthFrame && core.KindOf(err) != core.KindProtocol {
			t.Fatalf("header claims %d bytes before auth: want a protocol error, got %v", claimed, err)
		}
		if err != io.EOF {
			requireKind(t, "pre-auth read", err)
		}

		var fullTyp byte
		var fullPayload []byte
		var fullErr error
		full := allocatedBy(func() {
			fullTyp, fullPayload, fullErr = ReadFrame(bytes.NewReader(data))
		})
		if limit := uint64(bodyStep + 4*len(data) + allocSlack); full > limit {
			t.Fatalf("ReadFrame of %d bytes claiming %d allocated %d (limit %d)", len(data), claimed, full, limit)
		}
		if fullErr != io.EOF {
			requireKind(t, "ReadFrame", fullErr)
		}
		if fullErr == nil && (len(fullPayload)+1 != int(claimed) || fullTyp != data[4]) {
			t.Fatalf("ReadFrame returned type %d and %d payload bytes for a header claiming %d", fullTyp, len(fullPayload), claimed)
		}
		// Under the cap the two readers are the same reader.
		if claimed <= maxAuthFrame && (typ != fullTyp || !bytes.Equal(payload, fullPayload) || (err == nil) != (fullErr == nil)) {
			t.Fatalf("readers disagree under the cap: (%d, %d bytes, %v) vs (%d, %d bytes, %v)",
				typ, len(payload), err, fullTyp, len(fullPayload), fullErr)
		}

		joined, joinedErr := framesOf(bytes.NewReader(data))
		split, splitErr := framesOf(iotest.OneByteReader(bytes.NewReader(data)))
		if joinedErr != io.EOF {
			requireKind(t, "buffered read", joinedErr)
		}
		if len(joined) != len(split) || core.KindOf(joinedErr) != core.KindOf(splitErr) {
			t.Fatalf("one stream, two readings: %d frames then %v in one piece, %d frames then %v a byte at a time",
				len(joined), joinedErr, len(split), splitErr)
		}
		for i := range joined {
			if !bytes.Equal(joined[i], split[i]) {
				t.Fatalf("frame %d reads differently a byte at a time", i)
			}
		}
		if fullErr == nil && (len(joined) == 0 || !bytes.Equal(joined[0][1:], fullPayload) || joined[0][0] != fullTyp) {
			t.Fatalf("the buffered reader's first frame is not the unbuffered reader's")
		}
	})
}

// payloadDecoders is every Decode* function reachable from the server's
// handshake and handleFrame or from a client reading a response, the debug
// sub-protocol included.
var payloadDecoders = []struct {
	name   string
	decode func([]byte) error
}{
	{"DecodeAuth", func(p []byte) error { _, _, _, _, err := DecodeAuth(p); return err }},
	{"DecodeAuthOK", func(p []byte) error { _, _, err := DecodeAuthOK(p); return err }},
	{"DecodeExecStmt", func(p []byte) error { _, _, err := DecodeExecStmt(p); return err }},
	{"DecodeCloseStmt", func(p []byte) error { _, err := DecodeCloseStmt(p); return err }},
	{"DecodePrepareOK", func(p []byte) error { _, _, err := DecodePrepareOK(p); return err }},
	{"DecodeResult", func(p []byte) error { _, _, err := DecodeResult(p); return err }},
	{"DecodeResultChunk", func(p []byte) error { _, err := DecodeResultChunk(p); return err }},
	{"DecodeResultEnd", func(p []byte) error { _, _, err := DecodeResultEnd(p); return err }},
	// DecodeError's result is an error either way: the decoded one or the
	// reason it could not be decoded.
	{"DecodeError", DecodeError},
	{"DecodeDebugRequest", func(p []byte) error { _, err := DecodeDebugRequest(p); return err }},
	{"DecodeDebugReply", func(p []byte) error { _, err := DecodeDebugReply(p); return err }},
	{"DecodeDebugEvent", func(p []byte) error { _, err := DecodeDebugEvent(p); return err }},
}

// FuzzDecodePayloads hands one payload to every decoder in turn.
func FuzzDecodePayloads(f *testing.F) {
	tbl := sampleTable()
	for _, seed := range [][]byte{
		EncodeAuth("monetdb", "secret", "demo", ProtoV2),
		EncodeAuthOK("monetlite/2.0", ProtoV2),
		EncodeExecStmt(7, tbl.SliceRows(0, 1).Cols),
		EncodeCloseStmt(7),
		EncodePrepareOK(7, 3),
		EncodeResult("SELECT 3", tbl),
		EncodeResult("CREATE TABLE", nil),
		EncodeResultChunk(tbl),
		EncodeResultEnd("SELECT 3", 3),
		EncodeError(core.KindOverload, "shed"),
		EncodeDebugRequest(DebugRequest{Seq: 1, Command: DebugCmdLaunch, Query: "SELECT f(i) FROM t", UDF: "f",
			Breakpoints: []DebugBreakpoint{{Line: 3, Condition: "i == 2"}}}),
		EncodeDebugReply(DebugReply{Seq: 1, Success: true, Vars: map[string]string{"i": "2"},
			Frames: []DebugFrame{{Func: "f", Line: 3}}}),
		EncodeDebugEvent(DebugEventMsg{Kind: DebugEventStopped, Reason: "breakpoint", Line: 3, Func: "f"}),
		// a column whose header claims 2^32-1 rows over an empty body
		append(EncodeResultChunk(tbl)[:20], 0xFF, 0xFF, 0xFF, 0xFF),
		// tables no encoder writes: a BOOLEAN value byte of 2, and columns
		// of different lengths
		badBoolChunk(),
		raggedChunk(),
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, d := range payloadDecoders {
			var err error
			got := allocatedBy(func() { err = d.decode(payload) })
			requireKind(t, d.name, err)
			if limit := uint64(allocFactor*len(payload) + allocSlack); got > limit {
				t.Fatalf("%s allocated %d bytes for a %d-byte payload (limit %d)", d.name, got, len(payload), limit)
			}
		}
	})
}

// badBoolChunk is a result chunk whose one BOOLEAN value byte is 2.
func badBoolChunk() []byte {
	col := storage.NewColumn("b", storage.TBool)
	col.AppendBool(true)
	chunk := EncodeResultChunk(&storage.Table{Name: "result", Cols: []*storage.Column{col}})
	chunk[len(chunk)-1] = 2
	return chunk
}

// raggedChunk is a result chunk whose INTEGER column has two rows and whose
// BOOLEAN column has one.
func raggedChunk() []byte {
	long := storage.NewColumn("i", storage.TInt)
	long.AppendInt(1)
	long.AppendInt(2)
	short := storage.NewColumn("b", storage.TBool)
	short.AppendBool(true)
	chunk := binary.BigEndian.AppendUint32(storage.AppendString(nil, "result"), 2)
	for _, col := range []*storage.Column{long, short} {
		chunk = storage.AppendColumnValues(storage.AppendColumnHeader(chunk, col, 0, col.Len()), col, 0, col.Len())
	}
	return chunk
}

// TestClientRefusesTablesNoEncoderWrites: a chunk that is ragged, or holds a
// BOOLEAN byte that is neither 0 nor 1, ends the stream with a protocol
// error and a connection marked broken — the ragged one used to be handed
// to the caller, whose first scan indexed past the short column.
func TestClientRefusesTablesNoEncoderWrites(t *testing.T) {
	for name, chunk := range map[string][]byte{"ragged": raggedChunk(), "boolean byte 2": badBoolChunk()} {
		t.Run(name, func(t *testing.T) {
			tbl := sampleTable()
			nc := newScriptConn(false,
				frameBytes(MsgAuthOK, EncodeAuthOK("script/2.0", ProtoV2)),
				join(frameBytes(MsgResultChunk, EncodeResultChunk(tbl)),
					frameBytes(MsgResultChunk, chunk),
					frameBytes(MsgResultEnd, EncodeResultEnd("SELECT 5", 5))),
			)
			c, err := newClient(background(), nc, ConnParams{Database: "demo"})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			rows, err := c.QueryStream(background(), `SELECT * FROM t`)
			if err != nil {
				t.Fatal(err)
			}
			if !rows.Next() || rows.Batch().NumRows() != tbl.NumRows() {
				t.Fatalf("the well-formed first chunk: %v", rows.Err())
			}
			if rows.Next() {
				t.Fatalf("the client handed out the hostile chunk: %d rows", rows.Batch().NumRows())
			}
			if core.KindOf(rows.Err()) != core.KindProtocol {
				t.Fatalf("Rows.Err: want a protocol error, got %v", rows.Err())
			}
			if !c.broken.Load() {
				t.Error("the connection is not marked broken")
			}
		})
	}
}

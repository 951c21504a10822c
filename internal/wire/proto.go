// Package wire implements the client/server protocol of the embedded
// database — the reproduction's stand-in for MonetDB's MAPI/JDBC transport
// the devUDF plugin connects through. Frames are length-prefixed binary
// messages; result sets travel in a columnar binary encoding.
package wire

import (
	"encoding/binary"
	"io"

	"repro/internal/core"
	"repro/internal/storage"
)

// Protocol message types.
const (
	MsgAuth    byte = 1  // client → server: user, password, database, version
	MsgQuery   byte = 2  // client → server: SQL text
	MsgClose   byte = 3  // client → server: goodbye
	MsgPing    byte = 4  // client → server: liveness probe
	MsgAuthOK  byte = 16 // server → client: server banner, negotiated version
	MsgResult  byte = 17 // server → client: status + optional result table
	MsgErr     byte = 18 // server → client: error kind + message
	MsgGoodbye byte = 19 // server → client: close ack
	// streaming result protocol: zero or more chunks carrying column
	// batches, terminated by an end frame carrying the status message.
	MsgResultChunk byte = 20 // server → client: one column batch
	MsgResultEnd   byte = 21 // server → client: stream terminator + status
	MsgPong        byte = 22 // server → client: ping ack
	// (5 and 23–24 are the debug sub-protocol; see debugproto.go)
	// prepared statements: SQL is parsed and planned once server-side,
	// then executed any number of times with typed bind arguments.
	MsgPrepare     byte = 6  // client → server: SQL text to prepare
	MsgExecStmt    byte = 7  // client → server: stmt id + bind arguments
	MsgCloseStmt   byte = 8  // client → server: stmt id to discard
	MsgPrepareOK   byte = 25 // server → client: stmt id + parameter count
	MsgCloseStmtOK byte = 26 // server → client: close-stmt ack
)

// ProtoV2 is the one protocol version served: chunked result streams,
// pings and prepared statements. The handshake carries a version byte each
// way so that a peer speaking anything older, or sending no byte at all, is
// refused with a typed protocol error instead of being misread.
const ProtoV2 byte = 2

// maxFrame bounds a single frame (64 MiB) as a protocol sanity check.
// Result sets larger than this travel the chunked streaming path.
const maxFrame = 64 << 20

// maxAuthFrame bounds the one frame read before credentials are checked:
// room for EncodeAuth's three strings plus the version byte, so that a peer
// who has proved nothing cannot make the server reserve maxFrame bytes with
// a four-byte header.
const maxAuthFrame = 4 << 10

// DefaultChunkBytes is the target encoded size of one MsgResultChunk batch.
const DefaultChunkBytes = 4 << 20

// singleWriteMax is the largest payload that leaves with its header in one
// Write: below it a frame costs one syscall and one copy into the writer's
// buffer; above it the header goes first and the payload is written from
// where it lies, because there the second syscall is noise and a copy is not.
const singleWriteMax = 64 << 10

// bodyStep is how much of a frame body is reserved on the header's word
// alone; past it the buffer grows (fourfold, up to what the header claims)
// only as bytes arrive, so a peer holds at most four times what it has sent.
const bodyStep = 1 << 20

// frameWriter writes frames to one connection and owns the buffer that
// header and payload are assembled in, so it must not be used by two
// goroutines at once: connWriter serialises the server's writes, and a
// Client has one user.
type frameWriter struct {
	w   io.Writer
	buf []byte
}

// writeFrame writes a [length][type][payload] frame.
func (fw *frameWriter) writeFrame(typ byte, payload []byte) error {
	if len(payload)+1 > maxFrame {
		return core.Errorf(core.KindProtocol, "frame too large (%d bytes)", len(payload))
	}
	buf := binary.BigEndian.AppendUint32(fw.buf[:0], uint32(len(payload)+1))
	buf = append(buf, typ)
	if len(payload) <= singleWriteMax {
		buf = append(buf, payload...)
		payload = nil
	}
	fw.buf = buf
	if _, err := fw.w.Write(buf); err != nil {
		return core.Wrapf(core.KindIO, err, "write frame: %v", err)
	}
	if len(payload) > 0 {
		if _, err := fw.w.Write(payload); err != nil {
			return core.Wrapf(core.KindIO, err, "write frame: %v", err)
		}
	}
	return nil
}

// WriteFrame writes one frame to w through a writer of its own. A connection
// that writes many keeps one frameWriter instead.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	fw := frameWriter{w: w}
	return fw.writeFrame(typ, payload)
}

// ReadFrame reads one frame. Pass the connection's one bufio.Reader, not the
// connection: a small frame is then a single read, and whatever arrived
// behind it waits in the buffer for the next call.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	return readFrameMax(r, maxFrame)
}

// readFrameMax reads one frame whose length header may claim at most limit
// bytes.
func readFrameMax(r io.Reader, limit uint32) (typ byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, core.Wrapf(core.KindIO, err, "read frame header: %v", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > limit {
		return 0, nil, core.Errorf(core.KindProtocol, "bad frame length %d", n)
	}
	size, got := min(int(n), bodyStep), 0
	buf := make([]byte, size)
	for {
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			return 0, nil, core.Wrapf(core.KindIO, err, "read frame body: %v", err)
		}
		if size == int(n) {
			return buf[0], buf[1:], nil
		}
		got, size = size, min(int(n), 4*size)
		buf = append(make([]byte, 0, size), buf...)[:size]
	}
}

// ---- payload encoding helpers ----

func appendString(buf []byte, s string) []byte { return storage.AppendString(buf, s) }

// ---- auth / error payloads ----

// EncodeAuth encodes the MsgAuth payload (Fig. 2's connection parameters
// minus host/port, which name the socket itself) plus the client's highest
// supported protocol version.
func EncodeAuth(user, password, database string, version byte) []byte {
	buf := appendString(nil, user)
	buf = appendString(buf, password)
	buf = appendString(buf, database)
	return append(buf, version)
}

// DecodeAuth decodes a MsgAuth payload. A payload without the trailing
// version byte comes from a pre-negotiation client and reports version 0.
func DecodeAuth(payload []byte) (user, password, database string, version byte, err error) {
	r := storage.NewByteReader(payload)
	if user, err = r.Str(); err != nil {
		return
	}
	if password, err = r.Str(); err != nil {
		return
	}
	if database, err = r.Str(); err != nil {
		return
	}
	if r.Remaining() > 0 {
		version, err = r.U8()
		if err != nil {
			return
		}
		if r.Remaining() != 0 {
			err = core.Errorf(core.KindProtocol, "trailing bytes in auth payload")
			return
		}
	}
	return
}

// EncodeAuthOK encodes the MsgAuthOK payload: server banner plus the
// negotiated protocol version.
func EncodeAuthOK(banner string, version byte) []byte {
	return append(appendString(nil, banner), version)
}

// DecodeAuthOK decodes a MsgAuthOK payload. Banners from pre-negotiation
// servers lack the version byte and report version 0.
func DecodeAuthOK(payload []byte) (banner string, version byte, err error) {
	r := storage.NewByteReader(payload)
	if banner, err = r.Str(); err != nil {
		return
	}
	if r.Remaining() > 0 {
		version, err = r.U8()
	}
	return
}

// EncodeError encodes a MsgErr payload.
func EncodeError(kind core.ErrorKind, msg string) []byte {
	buf := []byte{byte(kind)}
	return appendString(buf, msg)
}

// DecodeError decodes a MsgErr payload into a *core.Error.
func DecodeError(payload []byte) error {
	r := storage.NewByteReader(payload)
	k, err := r.U8()
	if err != nil {
		return err
	}
	msg, err := r.Str()
	if err != nil {
		return err
	}
	return &core.Error{Kind: core.ErrorKind(k), Msg: msg}
}

// ---- prepared statement payloads ----

// EncodePrepareOK encodes the MsgPrepareOK payload: the server-assigned
// statement id plus the number of bind parameters the statement expects.
func EncodePrepareOK(id uint32, nparams int) []byte {
	buf := binary.BigEndian.AppendUint32(nil, id)
	return binary.BigEndian.AppendUint32(buf, uint32(nparams))
}

// DecodePrepareOK decodes a MsgPrepareOK payload.
func DecodePrepareOK(payload []byte) (id uint32, nparams int, err error) {
	r := storage.NewByteReader(payload)
	if id, err = r.U32(); err != nil {
		return
	}
	n, err := r.U32()
	if err != nil {
		return 0, 0, err
	}
	if r.Remaining() != 0 {
		return 0, 0, core.Errorf(core.KindProtocol, "trailing bytes in prepare-ok payload")
	}
	return id, int(n), nil
}

// EncodeExecStmt encodes the MsgExecStmt payload: the statement id followed
// by the bind arguments as a one-row table in the shared storage codec —
// the same typed column encoding result sets travel in, so every argument
// carries its SQL type and nullability.
func EncodeExecStmt(id uint32, args []*storage.Column) []byte {
	buf := binary.BigEndian.AppendUint32(nil, id)
	t := &storage.Table{Name: "args", Cols: args}
	return storage.EncodeTable(buf, t)
}

// DecodeExecStmt decodes a MsgExecStmt payload into the statement id and
// one length-1 column per bind argument.
func DecodeExecStmt(payload []byte) (id uint32, args []*storage.Column, err error) {
	r := storage.NewByteReader(payload)
	if id, err = r.U32(); err != nil {
		return
	}
	t, err := storage.DecodeTable(r)
	if err != nil {
		return 0, nil, err
	}
	if r.Remaining() != 0 {
		return 0, nil, core.Errorf(core.KindProtocol, "trailing bytes in exec-stmt payload")
	}
	for _, col := range t.Cols {
		if col.Len() != 1 {
			return 0, nil, core.Errorf(core.KindProtocol,
				"exec-stmt argument %q carries %d rows, want 1", col.Name, col.Len())
		}
	}
	return id, t.Cols, nil
}

// EncodeCloseStmt encodes the MsgCloseStmt payload.
func EncodeCloseStmt(id uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, id)
}

// DecodeCloseStmt decodes a MsgCloseStmt payload.
func DecodeCloseStmt(payload []byte) (uint32, error) {
	r := storage.NewByteReader(payload)
	id, err := r.U32()
	if err != nil {
		return 0, err
	}
	if r.Remaining() != 0 {
		return 0, core.Errorf(core.KindProtocol, "trailing bytes in close-stmt payload")
	}
	return id, nil
}

// ---- result set encoding ----

// EncodeResult encodes a status message plus optional result table using
// the shared storage codec.
func EncodeResult(msg string, t *storage.Table) []byte {
	buf := appendString(nil, msg)
	if t == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	return storage.EncodeTable(buf, t)
}

// ---- chunked result stream ----

// EncodeResultChunk encodes one MsgResultChunk payload: a column batch in
// the shared table codec, carrying the full schema so every chunk is
// self-describing.
func EncodeResultChunk(batch *storage.Table) []byte {
	return storage.EncodeTable(nil, batch)
}

// DecodeResultChunk decodes a MsgResultChunk payload.
func DecodeResultChunk(payload []byte) (*storage.Table, error) {
	r := storage.NewByteReader(payload)
	t, err := storage.DecodeTable(r)
	if err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, core.Errorf(core.KindProtocol, "trailing bytes in result chunk")
	}
	return t, nil
}

// EncodeResultEnd encodes the MsgResultEnd payload: the status message plus
// the total row count, so the client can cross-check the stream.
func EncodeResultEnd(msg string, rows int64) []byte {
	buf := appendString(nil, msg)
	return binary.BigEndian.AppendUint64(buf, uint64(rows))
}

// DecodeResultEnd decodes a MsgResultEnd payload.
func DecodeResultEnd(payload []byte) (msg string, rows int64, err error) {
	r := storage.NewByteReader(payload)
	if msg, err = r.Str(); err != nil {
		return
	}
	n, err := r.U64()
	if err != nil {
		return "", 0, err
	}
	if r.Remaining() != 0 {
		return "", 0, core.Errorf(core.KindProtocol, "trailing bytes in result end")
	}
	return msg, int64(n), nil
}

// WriteResultStream writes a result table to w as a chunked stream, through
// a writer of its own.
func WriteResultStream(w io.Writer, msg string, t *storage.Table, chunkBytes int) error {
	fw := frameWriter{w: w}
	return fw.writeResultStream(msg, t, chunkBytes)
}

// writeResultStream writes a result table as a MsgResultChunk sequence
// followed by MsgResultEnd, slicing rows into batches of about chunkBytes
// encoded bytes each (a single row larger than the frame cap is a protocol
// error). It is how result sets beyond maxFrame ship.
func (fw *frameWriter) writeResultStream(msg string, t *storage.Table, chunkBytes int) error {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	if chunkBytes > maxFrame/2 {
		chunkBytes = maxFrame / 2
	}
	rows := t.NumRows()
	// At least one chunk ships, so that the client learns the schema of an
	// empty table the way the one-shot path's empty table teaches it.
	for lo := 0; ; {
		hi, size := storage.ChunkEnd(t, lo, chunkBytes)
		if size+1 > maxFrame { // only a chunk of one row can be
			return core.Errorf(core.KindProtocol, "single row of %d bytes exceeds the frame cap", size)
		}
		if err := fw.writeFrame(MsgResultChunk, storage.EncodeTableRange(nil, t, lo, hi)); err != nil {
			return err
		}
		if lo = hi; lo >= rows {
			break
		}
	}
	return fw.writeFrame(MsgResultEnd, EncodeResultEnd(msg, int64(rows)))
}

// DecodeResult decodes a MsgResult payload.
func DecodeResult(payload []byte) (msg string, t *storage.Table, err error) {
	r := storage.NewByteReader(payload)
	if msg, err = r.Str(); err != nil {
		return
	}
	has, err := r.U8()
	if err != nil {
		return "", nil, err
	}
	if has == 0 {
		if r.Remaining() != 0 {
			return "", nil, core.Errorf(core.KindProtocol, "trailing bytes in result payload")
		}
		return msg, nil, nil
	}
	t, err = storage.DecodeTable(r)
	if err != nil {
		return "", nil, err
	}
	if r.Remaining() != 0 {
		return "", nil, core.Errorf(core.KindProtocol, "trailing bytes in result payload")
	}
	t.Name = "result"
	return msg, t, nil
}

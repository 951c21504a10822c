package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// msgConst is one Msg* constant as the package's sources declare it.
type msgConst struct {
	name    string
	typ     byte
	comment string
}

// toServer is the numbering rule of the protocol: request types sit below
// 16, reply types at or above it.
func (m msgConst) toServer() bool { return m.typ < 16 }

// msgConstants parses this package's non-test sources for every
// `MsgName byte = N` constant, so a message type added to the protocol is in
// the tests below without anyone listing it there.
func msgConstants(t testing.TB) []msgConst {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var out []msgConst
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), e.Name(), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "byte" {
					continue
				}
				for i, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Msg") {
						continue
					}
					n, err := strconv.ParseUint(vs.Values[i].(*ast.BasicLit).Value, 0, 8)
					if err != nil {
						t.Fatalf("%s: %v", name.Name, err)
					}
					out = append(out, msgConst{name.Name, byte(n), vs.Comment.Text()})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].typ < out[j].typ })
	return out
}

// TestMsgDirectionFollowsValue pins the rule the two dispatch tests derive a
// constant's direction from: the declaration's own comment says which way
// the message travels, and it agrees with the value.
func TestMsgDirectionFollowsValue(t *testing.T) {
	consts := msgConstants(t)
	if len(consts) < 16 {
		t.Fatalf("found %d Msg* constants, the protocol has at least 16: the source scan is broken", len(consts))
	}
	seen := map[byte]string{}
	for _, m := range consts {
		if prev, dup := seen[m.typ]; dup {
			t.Errorf("%s and %s share value %d", prev, m.name, m.typ)
		}
		seen[m.typ] = m.name
		want := "server → client"
		if m.toServer() {
			want = "client → server"
		}
		if !strings.HasPrefix(m.comment, want) {
			t.Errorf("%s = %d: values below 16 travel client → server and the rest server → client, so its comment must start %q; it reads %q",
				m.name, m.typ, want, strings.TrimSpace(m.comment))
		}
	}
}

// fenceSQL is the statement sent behind every probe: its result marks the
// end of whatever the server had to say about the probe.
const fenceSQL = `SELECT 1 AS fence`

// TestEveryRequestTypeIsDispatched sends each client → server message type,
// on its own authenticated connection, followed by a fence statement, and
// demands exactly one reply of the type the protocol promises before the
// fence's. A type with no arm in handleFrame gets the default arm's
// protocol error; a type handleFrame admits but execute has no case for
// gets no reply at all. A new constant has no entry in probes: it is sent
// with an empty payload, so that the failure says what the server did with
// it, and fails until its probe is added.
func TestEveryRequestTypeIsDispatched(t *testing.T) {
	_, params := startTestServer(t)
	type probe struct {
		payload func(stmt uint32) []byte
		reply   byte
		hangsUp bool // the server ends the session after the reply
	}
	probes := map[string]probe{
		// The one asserted exception: after the handshake MsgAuth is not a
		// request, and the default arm refuses it.
		"MsgAuth":      {func(uint32) []byte { return EncodeAuth(params.User, params.Password, params.Database, ProtoV2) }, MsgErr, true},
		"MsgQuery":     {func(uint32) []byte { return []byte(`SELECT 7 AS n`) }, MsgResult, false},
		"MsgClose":     {func(uint32) []byte { return nil }, MsgGoodbye, true},
		"MsgPing":      {func(uint32) []byte { return nil }, MsgPong, false},
		"MsgDebug":     {func(uint32) []byte { return EncodeDebugRequest(DebugRequest{Seq: 1, Command: DebugCmdPause}) }, MsgDebugReply, false},
		"MsgPrepare":   {func(uint32) []byte { return []byte(`SELECT 8 AS n`) }, MsgPrepareOK, false},
		"MsgExecStmt":  {func(id uint32) []byte { return EncodeExecStmt(id, nil) }, MsgResult, false},
		"MsgCloseStmt": {func(id uint32) []byte { return EncodeCloseStmt(id) }, MsgCloseStmtOK, false},
	}
	declared := map[string]bool{}
	for _, m := range msgConstants(t) {
		declared[m.name] = true
		if !m.toServer() {
			continue
		}
		t.Run(m.name, func(t *testing.T) {
			nc, br := rawSession(t, params)
			// Every session owns one prepared statement for the probes that
			// need an id.
			if err := WriteFrame(nc, MsgPrepare, []byte(`SELECT 41 + 1 AS n`)); err != nil {
				t.Fatal(err)
			}
			typ, payload, err := ReadFrame(br)
			if err != nil || typ != MsgPrepareOK {
				t.Fatalf("prepare: frame %d, %v", typ, err)
			}
			stmt, _, err := DecodePrepareOK(payload)
			if err != nil {
				t.Fatal(err)
			}

			p, known := probes[m.name]
			var body []byte
			if known {
				body = p.payload(stmt)
			}
			// No fence behind a probe that ends the session: closing a socket
			// with unread input resets it, and the reset may overtake the reply.
			out := frameBytes(m.typ, body)
			if !p.hangsUp {
				out = join(out, frameBytes(MsgQuery, []byte(fenceSQL)))
			}
			if _, err := nc.Write(out); err != nil {
				t.Fatal(err)
			}
			var replies []string
			var first byte
			hungUp := false
			for {
				typ, payload, err := ReadFrame(br)
				if err != nil {
					hungUp = true // EOF, or a reset if the fence was left unread
					break
				}
				if typ == MsgResult {
					if _, tbl, err := DecodeResult(payload); err == nil && tbl != nil && tbl.Cols[0].Name == "fence" {
						break
					}
				}
				if len(replies) == 0 {
					first = typ
				}
				desc := "frame " + strconv.Itoa(int(typ))
				if typ == MsgErr {
					desc += " (" + DecodeError(payload).Error() + ")"
				}
				replies = append(replies, desc)
			}
			if !known {
				t.Fatalf("%s = %d is a request type this test has no probe for; sent with an empty payload the server answered %v (hung up: %v). Give it an arm in handleFrame and a probe here",
					m.name, m.typ, replies, hungUp)
			}
			if len(replies) != 1 || first != p.reply || hungUp != p.hangsUp {
				t.Fatalf("%s = %d: the server answered %v (hung up: %v), want exactly one frame %d (hung up: %v)",
					m.name, m.typ, replies, hungUp, p.reply, p.hangsUp)
			}
		})
	}
	for name := range probes {
		if !declared[name] {
			t.Errorf("probe %s names no constant of the package", name)
		}
	}
}

// replyPayloads holds a well-formed payload for every reply type, so that a
// reader under test rejects a frame for its type and never for its body.
func replyPayloads() map[string][]byte {
	return map[string][]byte{
		"MsgAuthOK":      EncodeAuthOK("script/2.0", ProtoV2),
		"MsgResult":      EncodeResult("SELECT 3", sampleTable()),
		"MsgErr":         EncodeError(core.KindName, "no such table"),
		"MsgGoodbye":     nil,
		"MsgResultChunk": EncodeResultChunk(sampleTable()),
		"MsgResultEnd":   EncodeResultEnd("SELECT 3", 3),
		"MsgPong":        nil,
		"MsgDebugReply":  EncodeDebugReply(DebugReply{Seq: 99, Success: true}),
		"MsgDebugEvent":  EncodeDebugEvent(DebugEventMsg{Kind: DebugEventStopped, Reason: "breakpoint", Line: 3, Func: "f"}),
		"MsgPrepareOK":   EncodePrepareOK(1, 0),
		"MsgCloseStmtOK": nil,
	}
}

// TestEveryReplyTypeIsConsumedOrPoisons feeds each server → client message
// type to the client's three readers that switch on a frame type: the reply
// rule every one-frame request reads its answer by (one row per request),
// Rows (as a reply's first frame and inside a stream), and the debug demux.
// A reader either consumes the frame — a result, a server error, a goodbye
// it understands — or refuses it with a protocol error and marks the
// connection broken, because the byte stream can no longer be trusted.
// Which types a reader refuses is written down here, per reader: a new
// reply type is in nobody's list, so every reader must consume it or gain
// an entry.
func TestEveryReplyTypeIsConsumedOrPoisons(t *testing.T) {
	// Every reply type but the one a request expects, and MsgErr.
	allBut := func(want string) []string {
		var out []string
		for _, name := range []string{"MsgAuthOK", "MsgResult", "MsgGoodbye", "MsgResultChunk", "MsgResultEnd",
			"MsgPong", "MsgDebugReply", "MsgDebugEvent", "MsgPrepareOK", "MsgCloseStmtOK"} {
			if name != want {
				out = append(out, name)
			}
		}
		return out
	}
	readers := []struct {
		name    string
		poisons []string
		// feed hands the frame to the reader and returns the error the
		// caller of that reader sees.
		feed func(t *testing.T, frame []byte) (*Client, error)
	}{
		{
			name:    "reply rule/handshake",
			poisons: allBut("MsgAuthOK"),
			feed: func(t *testing.T, frame []byte) (*Client, error) {
				// newClient returns no Client when the handshake fails: keep
				// the one it shook hands on.
				nc := newScriptConn(false, frame)
				t.Cleanup(func() { nc.Close() })
				c := clientOn(nc, ConnParams{Database: "demo"})
				return c, c.handshake(background())
			},
		},
		{
			name:    "reply rule/Prepare",
			poisons: allBut("MsgPrepareOK"),
			feed: func(t *testing.T, frame []byte) (*Client, error) {
				c := scriptedClient(t, newScriptConn(false, authOK(), frame))
				_, err := c.Prepare(background(), `SELECT 1`)
				return c, err
			},
		},
		{
			name:    "reply rule/Stmt.Close",
			poisons: allBut("MsgCloseStmtOK"),
			feed: func(t *testing.T, frame []byte) (*Client, error) {
				c := scriptedClient(t, newScriptConn(false, authOK(), frame))
				return c, (&Stmt{c: c, id: 7}).Close(background())
			},
		},
		{
			name:    "reply rule/Ping",
			poisons: allBut("MsgPong"),
			feed: func(t *testing.T, frame []byte) (*Client, error) {
				c := scriptedClient(t, newScriptConn(false, authOK(), frame))
				return c, c.Ping(background())
			},
		},
		{
			// Rows reads a reply's first frame inside start. An end frame
			// closes a stream that chunks opened; no encoder sends one first.
			name:    "Client.start",
			poisons: []string{"MsgAuthOK", "MsgGoodbye", "MsgResultEnd", "MsgPong", "MsgDebugReply", "MsgDebugEvent", "MsgPrepareOK", "MsgCloseStmtOK"},
			feed: func(t *testing.T, frame []byte) (*Client, error) {
				c := scriptedClient(t, newScriptConn(false, authOK(), frame))
				_, err := c.QueryStream(background(), `SELECT * FROM t`)
				return c, err
			},
		},
		{
			name:    "Rows.Next",
			poisons: []string{"MsgAuthOK", "MsgResult", "MsgGoodbye", "MsgPong", "MsgDebugReply", "MsgDebugEvent", "MsgPrepareOK", "MsgCloseStmtOK"},
			feed: func(t *testing.T, frame []byte) (*Client, error) {
				c := scriptedClient(t, newScriptConn(false, authOK(), join(frameBytes(MsgResultChunk, EncodeResultChunk(sampleTable())), frame)))
				rows, err := c.QueryStream(background(), `SELECT * FROM t`)
				if err != nil {
					t.Fatal(err)
				}
				if !rows.Next() {
					t.Fatalf("the stream's first chunk: %v", rows.Err())
				}
				rows.Next() // reads the frame under test
				return c, rows.Err()
			},
		},
		{
			name:    "DebugConn.readLoop",
			poisons: []string{"MsgAuthOK", "MsgResult", "MsgErr", "MsgResultChunk", "MsgResultEnd", "MsgPong", "MsgPrepareOK", "MsgCloseStmtOK"},
			feed: func(t *testing.T, frame []byte) (*Client, error) {
				// A reply follows: it answers the request when the frame
				// under test was consumed without doing so.
				c := scriptedClient(t, newScriptConn(false, authOK(), join(frame, frameBytes(MsgDebugReply, EncodeDebugReply(DebugReply{Seq: 1, Success: true})))))
				dc, err := c.Debug()
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { dc.Close() })
				_, err = dc.RoundTrip(ctxSec(t), DebugRequest{Command: DebugCmdPause})
				return c, err
			},
		},
	}
	payloads := replyPayloads()
	consts := msgConstants(t)
	declared := map[string]bool{}
	for _, m := range consts {
		declared[m.name] = true
	}
	for _, r := range readers {
		poisons := map[string]bool{}
		for _, name := range r.poisons {
			poisons[name] = true
			if !declared[name] {
				t.Errorf("%s: %s is listed as poisoning but names no constant of the package", r.name, name)
			}
		}
		for _, m := range consts {
			if m.toServer() {
				continue
			}
			t.Run(r.name+"/"+m.name, func(t *testing.T) {
				c, err := r.feed(t, frameBytes(m.typ, payloads[m.name]))
				refused := core.KindOf(err) == core.KindProtocol
				switch {
				case poisons[m.name] && !(refused && c.Broken()):
					t.Errorf("%s = %d is listed as poisoning for %s, which returned %v (connection broken: %v)",
						m.name, m.typ, r.name, err, c.Broken())
				case !poisons[m.name] && refused:
					t.Errorf("%s = %d is not consumed by %s (%v): give it a case there, or list it as poisoning here",
						m.name, m.typ, r.name, err)
				}
			})
		}
	}
}

// Package core holds small kernel types shared by every substrate in the
// devUDF reproduction: error kinds, the virtual file system abstraction the
// script interpreter and the demo data loaders use, and identifier helpers.
package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrorKind classifies errors crossing subsystem boundaries so that the wire
// protocol and the CLI can render them uniformly.
type ErrorKind int

// Error kinds, ordered roughly by the layer that raises them.
const (
	KindUnknown    ErrorKind = iota
	KindSyntax               // SQL or script parse error
	KindName                 // unknown table, column, function or variable
	KindType                 // type mismatch
	KindRuntime              // script runtime failure inside a UDF
	KindAuth                 // authentication failure
	KindProtocol             // malformed wire frame
	KindIO                   // file system or network failure
	KindConstraint           // schema violation (duplicate table, arity, ...)
	KindCancelled            // query aborted: deadline, client disconnect, server stop
	KindOverload             // server shed the request before executing it; retry
	KindResource             // a resource budget was exceeded (rows, bytes, UDF wall clock)
)

// String returns the SQLSTATE-like tag used in error messages and on the wire.
func (k ErrorKind) String() string {
	switch k {
	case KindSyntax:
		return "syntax"
	case KindName:
		return "name"
	case KindType:
		return "type"
	case KindRuntime:
		return "runtime"
	case KindAuth:
		return "auth"
	case KindProtocol:
		return "protocol"
	case KindIO:
		return "io"
	case KindConstraint:
		return "constraint"
	case KindCancelled:
		return "cancelled"
	case KindOverload:
		return "overload"
	case KindResource:
		return "resource"
	default:
		return "unknown"
	}
}

// Retryable reports whether err is safe to retry verbatim because the
// server is known not to have executed the request: a KindOverload shed
// response (admission control refused it before execution). Transport
// failures during dial or handshake are also pre-execution, but they are
// classified by the caller that knows no request was in flight — a bare
// KindIO mid-operation is NOT retryable, since the statement may have
// executed before the connection died.
func Retryable(err error) bool { return KindOf(err) == KindOverload }

// IsCancelled reports whether err is a query cancellation (deadline,
// client disconnect, or server stop), across wrapping.
func IsCancelled(err error) bool { return KindOf(err) == KindCancelled }

// Error is the uniform error payload used across the engine, the wire
// protocol and the plugin core.
type Error struct {
	Kind ErrorKind
	Msg  string
	// Err is the wrapped cause, when there is one; it is preserved for
	// errors.Is/As (e.g. context.Canceled, fs.ErrNotExist) but does not
	// travel over the wire.
	Err error
}

// Errorf constructs an *Error with fmt-style formatting.
func Errorf(kind ErrorKind, format string, args ...any) *Error {
	return &Error{Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

// Wrapf constructs an *Error that wraps cause, so errors.Is/As see through
// it while the kind/message still classify it for the wire and the CLI.
//
// A kind that drives behaviour survives wrapping: when cause is already
// KindCancelled or KindOverload the new error keeps that kind whatever
// kind argument the caller passed, so no layer can turn a cancellation
// into a KindIO failure of the endpoint or a shed request into something
// Retryable no longer recognises. A bare ctx.Err() is KindCancelled too.
// That test is identity, not errors.Is: net's dial-timeout error answers
// errors.Is(err, context.DeadlineExceeded), and a dialer timeout is the
// endpoint's failure, so it must stay KindIO.
func Wrapf(kind ErrorKind, cause error, format string, args ...any) *Error {
	switch k := KindOf(cause); {
	case k == KindCancelled || k == KindOverload:
		kind = k
	case cause == context.Canceled || cause == context.DeadlineExceeded:
		kind = KindCancelled
	}
	return &Error{Kind: kind, Msg: fmt.Sprintf(format, args...), Err: cause}
}

func (e *Error) Error() string { return e.Kind.String() + " error: " + e.Msg }

// Unwrap exposes the wrapped cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// IsNotExist reports whether err stems from a missing file, across both the
// OS-backed and the in-memory FS implementations.
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// KindOf extracts the ErrorKind from err, or KindUnknown when err is not a
// *core.Error.
func KindOf(err error) ErrorKind {
	var ce *Error
	if ok := asError(err, &ce); ok {
		return ce.Kind
	}
	return KindUnknown
}

func asError(err error, target **Error) bool {
	for err != nil {
		if e, ok := err.(*Error); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// FS is the minimal virtual file system surface that PyLite's os/open
// builtins require. Scenario B's data loader walks a directory of CSV files
// through this interface, so tests can run against an in-memory FS while the
// server daemon runs against the real one.
type FS interface {
	// ReadFile returns the full contents of the named file.
	ReadFile(name string) ([]byte, error)
	// ListDir returns the sorted base names of directory entries.
	ListDir(dir string) ([]string, error)
	// WriteFile creates or replaces the named file.
	WriteFile(name string, data []byte) error
}

// OSFS is an FS backed by the real operating system, rooted at Dir. An empty
// Dir means paths are used verbatim.
type OSFS struct {
	Dir string
}

func (o OSFS) path(name string) string {
	if o.Dir == "" {
		return name
	}
	if filepath.IsAbs(name) {
		return name
	}
	return filepath.Join(o.Dir, name)
}

// ReadFile implements FS.
func (o OSFS) ReadFile(name string) ([]byte, error) {
	b, err := os.ReadFile(o.path(name))
	if err != nil {
		return nil, Wrapf(KindIO, err, "%v", err)
	}
	return b, nil
}

// ListDir implements FS.
func (o OSFS) ListDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(o.path(dir))
	if err != nil {
		return nil, Wrapf(KindIO, err, "%v", err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// WriteFile implements FS.
func (o OSFS) WriteFile(name string, data []byte) error {
	p := o.path(name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return Wrapf(KindIO, err, "%v", err)
	}
	if err := os.WriteFile(p, data, 0o644); err != nil {
		return Wrapf(KindIO, err, "%v", err)
	}
	return nil
}

// MemFS is an in-memory FS for tests and examples. The zero value is ready
// to use. It is safe for concurrent use.
type MemFS struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// NewMemFS builds a MemFS pre-populated with files.
func NewMemFS(files map[string]string) *MemFS {
	m := &MemFS{files: make(map[string][]byte, len(files))}
	for k, v := range files {
		m.files[normalize(k)] = []byte(v)
	}
	return m
}

func normalize(p string) string {
	p = strings.TrimPrefix(p, "./")
	return strings.TrimSuffix(p, "/")
}

// ReadFile implements FS.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	b, ok := m.files[normalize(name)]
	if !ok {
		return nil, Wrapf(KindIO, fs.ErrNotExist, "no such file: %s", name)
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// ListDir implements FS.
func (m *MemFS) ListDir(dir string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	prefix := normalize(dir)
	if prefix != "" {
		prefix += "/"
	}
	seen := map[string]bool{}
	for name := range m.files {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		rest := strings.TrimPrefix(name, prefix)
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		seen[rest] = true
	}
	if len(seen) == 0 {
		return nil, Wrapf(KindIO, fs.ErrNotExist, "no such directory: %s", dir)
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// WriteFile implements FS.
func (m *MemFS) WriteFile(name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files == nil {
		m.files = make(map[string][]byte)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	m.files[normalize(name)] = cp
	return nil
}

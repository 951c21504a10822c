package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"testing"
)

func TestErrorKinds(t *testing.T) {
	err := Errorf(KindAuth, "bad password for %s", "monetdb")
	if got := err.Error(); got != "auth error: bad password for monetdb" {
		t.Fatalf("Error() = %q", got)
	}
	if KindOf(err) != KindAuth {
		t.Fatalf("KindOf = %v", KindOf(err))
	}
	wrapped := fmt.Errorf("outer: %w", err)
	if KindOf(wrapped) != KindAuth {
		t.Fatalf("KindOf(wrapped) = %v", KindOf(wrapped))
	}
	if KindOf(fmt.Errorf("plain")) != KindUnknown {
		t.Fatal("plain errors are KindUnknown")
	}
}

// TestWrapfKeepsBehaviourDrivingKinds states the constructor rule: under
// every kind argument, a KindCancelled or KindOverload cause (however
// deeply wrapped) and a bare ctx.Err() keep their kind; any other cause
// takes the kind the caller asked for.
func TestWrapfKeepsBehaviourDrivingKinds(t *testing.T) {
	cancelled := Errorf(KindCancelled, "query aborted")
	overload := Errorf(KindOverload, "queue full")
	causes := []struct {
		name  string
		cause error
		want  ErrorKind // KindUnknown: the kind argument wins
	}{
		{"cancelled", cancelled, KindCancelled},
		{"overload", overload, KindOverload},
		{"cancelled wrapped twice", Wrapf(KindIO, Wrapf(KindRuntime, cancelled, "inner"), "outer"), KindCancelled},
		{"overload wrapped twice", Wrapf(KindIO, Wrapf(KindRuntime, overload, "inner"), "outer"), KindOverload},
		{"cancelled in %w", fmt.Errorf("exec: %w", cancelled), KindCancelled},
		{"overload in %w", fmt.Errorf("exec: %w", overload), KindOverload},
		{"context.Canceled", context.Canceled, KindCancelled},
		{"context.DeadlineExceeded", context.DeadlineExceeded, KindCancelled},
		{"io.EOF", io.EOF, KindUnknown},
	}
	for kind := KindUnknown; kind <= KindResource; kind++ {
		for _, c := range causes {
			want := c.want
			if want == KindUnknown {
				want = kind
			}
			err := Wrapf(kind, c.cause, "step failed: %v", c.cause)
			if err.Kind != want || KindOf(fmt.Errorf("outer: %w", err)) != want {
				t.Errorf("Wrapf(%v, %s).Kind = %v, want %v", kind, c.name, err.Kind, want)
			}
			if !errors.Is(err, c.cause) {
				t.Errorf("Wrapf(%v, %s) hides its cause from errors.Is", kind, c.name)
			}
			if got := Retryable(err); got != (want == KindOverload) {
				t.Errorf("Retryable(Wrapf(%v, %s)) = %t", kind, c.name, got)
			}
			if got := IsCancelled(err); got != (want == KindCancelled) {
				t.Errorf("IsCancelled(Wrapf(%v, %s)) = %t", kind, c.name, got)
			}
		}
	}
}

// TestErrorfKeepsItsErrorOperand: Errorf given an error operand keeps the
// first one as its cause, with Wrapf's kind rule, and formats the message
// exactly as without it.
func TestErrorfKeepsItsErrorOperand(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	err := Errorf(KindIO, "x: %v, then %v", first, second)
	if !errors.Is(err, first) || err.Err != first {
		t.Errorf("Errorf hides its first error operand: Err = %v", err.Err)
	}
	if got := err.Error(); got != "io error: x: first, then second" {
		t.Errorf("Error() = %q", got)
	}
	if err.Kind != KindIO {
		t.Errorf("Kind = %v, want io", err.Kind)
	}
	if k := Errorf(KindIO, "x: %v", context.Canceled).Kind; k != KindCancelled {
		t.Errorf("a context.Canceled operand gives %v, want cancelled", k)
	}
	shed := Errorf(KindOverload, "queue full")
	if err := Errorf(KindRuntime, "x: %v", shed); err.Kind != KindOverload || !Retryable(err) {
		t.Errorf("a KindOverload operand gives %v, want overload", err.Kind)
	}
	plain := Errorf(KindName, "no column %s (%d)", "c", 3)
	if plain.Err != nil || plain.Error() != "name error: no column c (3)" {
		t.Errorf("without an error operand: Err = %v, Error() = %q", plain.Err, plain.Error())
	}
}

// TestWrapfTagsTheKindOnce: a *Error operand formats as its Msg, so a
// cause wrapped as "step: %v" does not repeat its kind tag in the message,
// while errors.Is and KindOf still reach the cause through the chain.
func TestWrapfTagsTheKindOnce(t *testing.T) {
	root := errors.New("is a directory")
	inner := Wrapf(KindIO, root, "read devudf.json: %v", root)
	for _, err := range []*Error{
		Wrapf(KindIO, inner, "read settings: %v", inner),
		Errorf(KindIO, "read settings: %v", inner),
	} {
		if got := err.Error(); got != "io error: read settings: read devudf.json: is a directory" {
			t.Errorf("Error() = %q, want the io tag once", got)
		}
		if !errors.Is(err, root) || err.Err != inner {
			t.Errorf("the cause is lost: Err = %v", err.Err)
		}
	}
	shed := Errorf(KindOverload, "queue full")
	err := Wrapf(KindRuntime, shed, "run: %v, %s", shed, "again")
	if got := err.Error(); got != "overload error: run: queue full, again" || KindOf(err) != KindOverload {
		t.Errorf("Error() = %q, KindOf = %v", got, KindOf(err))
	}
}

// TestMessage: a *Error gives its Msg, any other error its Error(). Only
// err itself is looked at, so an error that wraps a *Error under its own
// text keeps that text.
func TestMessage(t *testing.T) {
	ce := Errorf(KindConstraint, "UDF f returned 2 rows for 3 input rows")
	for _, tc := range []struct {
		err  error
		want string
	}{
		{ce, "UDF f returned 2 rows for 3 input rows"},
		{Wrapf(KindIO, io.EOF, "read: %v", io.EOF), "read: EOF"},
		{Errorf(KindRuntime, "UDF g failed: %v", ce), "UDF g failed: UDF f returned 2 rows for 3 input rows"},
		{io.EOF, "EOF"},
		{fmt.Errorf("callback: %w", ce), "callback: constraint error: UDF f returned 2 rows for 3 input rows"},
	} {
		if got := Message(tc.err); got != tc.want {
			t.Errorf("Message(%#v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

func TestErrorKindStrings(t *testing.T) {
	kinds := map[ErrorKind]string{
		KindUnknown: "unknown", KindSyntax: "syntax", KindName: "name",
		KindType: "type", KindRuntime: "runtime", KindAuth: "auth",
		KindProtocol: "protocol", KindIO: "io", KindConstraint: "constraint",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestMemFS(t *testing.T) {
	fs := NewMemFS(map[string]string{
		"dir/a.csv":     "1\n",
		"dir/b.csv":     "2\n",
		"dir/sub/c.csv": "3\n",
		"top.txt":       "t",
	})
	names, err := fs.ListDir("dir")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names) != "[a.csv b.csv sub]" {
		t.Fatalf("ListDir = %v", names)
	}
	b, err := fs.ReadFile("dir/a.csv")
	if err != nil || string(b) != "1\n" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
	if _, err := fs.ReadFile("missing"); err == nil {
		t.Fatal("missing file should error")
	}
	if _, err := fs.ListDir("nope"); err == nil {
		t.Fatal("missing dir should error")
	}
	if err := fs.WriteFile("new/file.bin", []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	b, err = fs.ReadFile("new/file.bin")
	if err != nil || len(b) != 2 {
		t.Fatalf("round trip failed: %v %v", b, err)
	}
	// writes copy their input
	src := []byte{9}
	_ = fs.WriteFile("x", src)
	src[0] = 0
	b, _ = fs.ReadFile("x")
	if b[0] != 9 {
		t.Fatal("WriteFile must copy data")
	}
}

func TestMemFSDotSlashNormalization(t *testing.T) {
	fs := NewMemFS(map[string]string{"input.bin": "data"})
	if _, err := fs.ReadFile("./input.bin"); err != nil {
		t.Fatalf("./ prefix should resolve: %v", err)
	}
}

// TestMemFSResolvesPathsAsOSFS: the same writes on a MemFS and on an OSFS
// read back the same files under the same names and list the same
// directories: both resolve ".", ".." and "//" in a name the way
// filepath.Join does, and no directory lists "..".
func TestMemFSResolvesPathsAsOSFS(t *testing.T) {
	written := []string{"a/../b.py", "./a/./c.py", "a//d.py"}
	mem, disk := NewMemFS(nil), OSFS{Dir: t.TempDir()}
	for i, name := range written {
		for _, fs := range []FS{mem, disk} {
			if err := fs.WriteFile(name, []byte{byte('0' + i)}); err != nil {
				t.Fatalf("%T.WriteFile(%q): %v", fs, name, err)
			}
		}
	}
	for _, name := range append(written, "b.py", "a/c.py", "a/d.py", "a/../a/c.py", "./b.py") {
		m, merr := mem.ReadFile(name)
		d, derr := disk.ReadFile(name)
		if merr != nil || derr != nil || string(m) != string(d) {
			t.Errorf("ReadFile(%q): MemFS %q (%v), OSFS %q (%v)", name, m, merr, d, derr)
		}
	}
	for _, dir := range []string{"", ".", "a", "./a", "a/", "a/./", "b/.."} {
		m, merr := mem.ListDir(dir)
		d, derr := disk.ListDir(dir)
		if merr != nil || derr != nil || fmt.Sprint(m) != fmt.Sprint(d) {
			t.Errorf("ListDir(%q): MemFS %q (%v), OSFS %q (%v)", dir, m, merr, d, derr)
		}
		for _, name := range m {
			if name == ".." || name == "." || name == "" {
				t.Errorf("MemFS.ListDir(%q) lists %q", dir, name)
			}
		}
	}
}

func TestOSFS(t *testing.T) {
	dir := t.TempDir()
	fs := OSFS{Dir: dir}
	if err := fs.WriteFile("sub/f.txt", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	b, err := fs.ReadFile("sub/f.txt")
	if err != nil || string(b) != "hi" {
		t.Fatalf("read back: %q %v", b, err)
	}
	names, err := fs.ListDir("sub")
	if err != nil || len(names) != 1 || names[0] != "f.txt" {
		t.Fatalf("ListDir: %v %v", names, err)
	}
	if _, err := fs.ReadFile(filepath.Join(dir, "sub", "f.txt")); err != nil {
		t.Fatalf("absolute path: %v", err)
	}
	if _, err := fs.ReadFile("absent"); err == nil {
		t.Fatal("missing file should error")
	}
}

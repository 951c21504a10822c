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

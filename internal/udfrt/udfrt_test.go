package udfrt

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/storage"
)

func TestBatchRowAndBroadcast(t *testing.T) {
	x := storage.NewColumn("x", storage.TInt)
	x.AppendInt(1)
	x.AppendInt(2)
	c := storage.NewColumn("c", storage.TStr)
	c.AppendStr("k")
	b := NewBatch([]*storage.Column{x, c}, []bool{true, false})
	if b.Rows != 2 || !b.Columnar(0) || b.Columnar(1) {
		t.Fatalf("batch: %+v", b)
	}
	r1 := b.Row(1)
	if r1.Rows != 1 || r1.Cols[0].Ints[0] != 2 || r1.Cols[1].Strs[0] != "k" {
		t.Fatalf("row batch: %+v", r1.Cols)
	}
	if r1.Columnar(0) {
		t.Fatal("row batches use the scalar convention")
	}
}

func TestEnvMemo(t *testing.T) {
	env := &Env{}
	builds := 0
	key := "k"
	for i := 0; i < 3; i++ {
		v, err := env.Memo(key, func() (any, error) { builds++; return builds, nil })
		if err != nil || v.(int) != 1 {
			t.Fatalf("memo: %v %v", v, err)
		}
	}
	if builds != 1 {
		t.Fatalf("built %d times", builds)
	}
	// errors are not memoized
	if _, err := env.Memo("other", func() (any, error) { return nil, errors.New("x") }); err == nil {
		t.Fatal("memo must propagate build errors")
	}
}

func TestWrapErr(t *testing.T) {
	err := WrapErr("f", errors.New("boom"))
	if err == nil || !strings.Contains(err.Error(), "UDF f failed: boom") {
		t.Fatalf("%v", err)
	}
	// same-name wraps are idempotent
	if again := WrapErr("f", err); again.Error() != err.Error() {
		t.Fatalf("double wrap: %v", again)
	}
	// a different UDF's wrap nests (the caller gains its own name)
	if outer := WrapErr("g", err); !strings.Contains(outer.Error(), "UDF g failed") ||
		!strings.Contains(outer.Error(), "UDF f failed") {
		t.Fatalf("nested wrap: %v", outer)
	}
	// a user error that merely starts with "UDF " still gets named
	if tricky := WrapErr("h", errors.New("UDF budget exceeded")); !strings.Contains(tricky.Error(), "UDF h failed") {
		t.Fatalf("prefix-colliding message must still be wrapped: %v", tricky)
	}
	if WrapErr("f", nil) != nil {
		t.Fatal("nil stays nil")
	}
}

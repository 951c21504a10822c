package vcs

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func newRepo(t *testing.T) *Repo {
	t.Helper()
	fs := core.NewMemFS(nil)
	r, err := Init(fs, "project")
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestInitAndReopen(t *testing.T) {
	fs := core.NewMemFS(nil)
	if _, err := Open(fs, "p"); err == nil {
		t.Fatal("open before init should fail")
	}
	if _, err := Init(fs, "p"); err != nil {
		t.Fatal(err)
	}
	if _, err := Init(fs, "p"); err == nil {
		t.Fatal("double init should fail")
	}
	if _, err := Open(fs, "p"); err != nil {
		t.Fatal(err)
	}
}

func TestCommitLogCheckout(t *testing.T) {
	r := newRepo(t)
	h1, err := r.Commit("mark", "initial import", map[string][]byte{
		"mean_deviation.py": []byte("def mean_deviation(column):\n    return 0\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := r.Commit("mark", "fix abs bug", map[string][]byte{
		"mean_deviation.py": []byte("def mean_deviation(column):\n    return abs(0)\n"),
		"loader.py":         []byte("def loadNumbers(path):\n    pass\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatal("distinct commits must have distinct hashes")
	}
	log, err := r.Log()
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || log[0].Hash != h2 || log[1].Hash != h1 {
		t.Fatalf("log: %+v", log)
	}
	if log[0].Message != "fix abs bug" || log[0].Seq != 2 || log[0].Parent != h1 {
		t.Fatalf("commit meta: %+v", log[0])
	}
	old, err := r.FileAt(h1, "mean_deviation.py")
	if err != nil || !strings.Contains(string(old), "return 0") {
		t.Fatalf("mean_deviation.py at h1: %q %v", old, err)
	}
	if _, err := r.FileAt(h1, "loader.py"); err == nil {
		t.Fatal("loader.py was added in h2 and must not be in h1")
	}
	if _, err := r.FileAt(h2, "loader.py"); err != nil {
		t.Fatalf("loader.py at h2: %v", err)
	}
}

func TestEmptyCommitRejected(t *testing.T) {
	r := newRepo(t)
	if _, err := r.Commit("m", "nothing", nil); err == nil {
		t.Fatal("empty commit should fail")
	}
	files := map[string][]byte{"a.py": []byte("x = 1\n")}
	if _, err := r.Commit("m", "first", files); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Commit("m", "same", files); err == nil {
		t.Fatal("no-change commit should fail")
	}
}

func TestDiff(t *testing.T) {
	r := newRepo(t)
	h1, _ := r.Commit("m", "v1", map[string][]byte{
		"f.py":   []byte("a\nb\nc\n"),
		"old.py": []byte("gone\n"),
	})
	h2, _ := r.Commit("m", "v2", map[string][]byte{
		"f.py":   []byte("a\nB\nc\nd\n"),
		"new.py": []byte("hello\n"),
	})
	diff, err := r.Diff(h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]DiffEntry{}
	for _, d := range diff {
		byPath[d.Path] = d
	}
	if byPath["old.py"].Status != DiffRemoved || byPath["new.py"].Status != DiffAdded {
		t.Fatalf("statuses: %+v", byPath)
	}
	mod := byPath["f.py"]
	if mod.Status != DiffModified {
		t.Fatalf("f.py: %+v", mod)
	}
	joined := strings.Join(mod.Lines, "|")
	if !strings.Contains(joined, "-b") || !strings.Contains(joined, "+B") || !strings.Contains(joined, "+d") {
		t.Fatalf("diff lines: %v", mod.Lines)
	}
}

func TestFileAt(t *testing.T) {
	r := newRepo(t)
	h, _ := r.Commit("m", "v1", map[string][]byte{"a.py": []byte("v1\n")})
	_, _ = r.Commit("m", "v2", map[string][]byte{"a.py": []byte("v2\n")})
	b, err := r.FileAt(h, "a.py")
	if err != nil || string(b) != "v1\n" {
		t.Fatalf("FileAt: %q %v", b, err)
	}
	if _, err := r.FileAt(h, "missing.py"); err == nil {
		t.Fatal("missing file should error")
	}
	if _, err := r.FileAt("deadbeef", "a.py"); err == nil {
		t.Fatal("missing commit should error")
	}
}

func TestDiffLinesProperty(t *testing.T) {
	// Applying the diff to A must reproduce B.
	f := func(aRaw, bRaw []uint8) bool {
		a := makeLines(aRaw)
		b := makeLines(bRaw)
		diff := DiffLines(a, b)
		var rebuilt []string
		for _, d := range diff {
			if strings.HasPrefix(d, "+") || strings.HasPrefix(d, " ") {
				rebuilt = append(rebuilt, d[1:])
			}
		}
		want := splitLines(b)
		if len(rebuilt) != len(want) {
			return false
		}
		for i := range want {
			if rebuilt[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// makeLines converts arbitrary bytes to a small line-based document.
func makeLines(raw []uint8) string {
	var sb strings.Builder
	for _, r := range raw {
		sb.WriteString("line")
		sb.WriteByte('0' + r%7)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestHistoryOfUDFWorkflow(t *testing.T) {
	// The workflow the paper motivates: import → commit → edit → commit →
	// inspect history of a UDF file.
	r := newRepo(t)
	buggy := "def mean_deviation(column):\n    distance += column[i] - mean\n"
	fixed := "def mean_deviation(column):\n    distance += abs(column[i] - mean)\n"
	h1, err := r.Commit("dev", "import from server", map[string][]byte{"mean_deviation.py": []byte(buggy)})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := r.Commit("dev", "fix: use absolute difference", map[string][]byte{"mean_deviation.py": []byte(fixed)})
	if err != nil {
		t.Fatal(err)
	}
	diff, err := r.Diff(h1, h2)
	if err != nil || len(diff) != 1 {
		t.Fatalf("diff: %v %v", diff, err)
	}
	joined := strings.Join(diff[0].Lines, "\n")
	if !strings.Contains(joined, "-    distance += column[i] - mean") ||
		!strings.Contains(joined, "+    distance += abs(column[i] - mean)") {
		t.Fatalf("diff should show the abs fix:\n%s", joined)
	}
}

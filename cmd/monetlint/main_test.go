package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/suite"
)

// fixtureDir is resolved at init, before any test changes directory.
var fixtureDir, _ = filepath.Abs(filepath.Join("testdata", "lintmod"))

// lintFixture copies the fixture module to a scratch directory (so a test
// may edit it), makes it the working directory and runs the whole suite.
func lintFixture(t *testing.T, edit func(dir string), patterns ...string) (code int, stderr string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(fixtureDir)); err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(dir)
	}
	t.Chdir(dir)
	var errw bytes.Buffer
	code = lint(patterns, suite.Analyzers(), &errw)
	return code, errw.String()
}

func TestLintReportsSeededViolation(t *testing.T) {
	code, stderr := lintFixture(t, nil, "./...")
	if code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	if len(lines) != 2 {
		t.Fatalf("stderr = %q, want the one finding (nested module not walked) and the summary", stderr)
	}
	finding := filepath.Join("bad", "bad.go") + ":12:41: fmt.Errorf formats an error with %v"
	if !strings.Contains(lines[0], finding) || !strings.HasSuffix(lines[0], " [errwrap]") {
		t.Errorf("finding line = %q, want ...%s... [errwrap]", lines[0], finding)
	}
	if lines[1] != "monetlint: 1 finding (errwrap:1)" {
		t.Errorf("summary line = %q", lines[1])
	}
}

func TestLintCleanTree(t *testing.T) {
	code, stderr := lintFixture(t, func(dir string) {
		if err := os.RemoveAll(filepath.Join(dir, "bad")); err != nil {
			t.Fatal(err)
		}
	}, "./...")
	if code != 0 || stderr != "" {
		t.Errorf("clean tree: exit %d, stderr %q; want 0 and silence", code, stderr)
	}
}

func TestLintOperationalErrors(t *testing.T) {
	for _, pat := range []string{"./missing/...", "../outside", "lintmod/nosuch"} {
		code, stderr := lintFixture(t, nil, pat)
		if code != 1 || !strings.HasPrefix(stderr, "monetlint: ") {
			t.Errorf("pattern %s: exit %d, stderr %q; want 1 and a monetlint: line", pat, code, stderr)
		}
	}
}

func TestFindModule(t *testing.T) {
	dir, path, err := findModule()
	if err != nil {
		t.Fatal(err)
	}
	if path != "repro" {
		t.Errorf("module path = %q, want repro", path)
	}
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
		t.Errorf("module dir %s has no go.mod: %v", dir, err)
	}
}

func TestFindModuleMissing(t *testing.T) {
	t.Chdir(t.TempDir())
	if _, _, err := findModule(); err == nil {
		t.Fatal("expected an error outside any module")
	}
}

func TestSummaryLine(t *testing.T) {
	got := summaryLine(map[string]int{"errwrap": 3, "ctxflow": 1, "quiet": 0})
	want := "monetlint: 4 findings (ctxflow:1 errwrap:3)"
	if got != want {
		t.Errorf("summaryLine = %q, want %q", got, want)
	}
	if got := summaryLine(map[string]int{"lockblock": 1}); got != "monetlint: 1 finding (lockblock:1)" {
		t.Errorf("singular summaryLine = %q", got)
	}
}

func TestResolveImportPath(t *testing.T) {
	modDir, modPath, err := findModule()
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(modDir) // patterns resolve relative to the working directory
	cases := []struct{ pat, want string }{
		{".", modPath},
		{"./internal/wire", modPath + "/internal/wire"},
		{modPath + "/internal/engine", modPath + "/internal/engine"},
	}
	for _, c := range cases {
		if got, err := resolveImportPath(c.pat, modDir, modPath); err != nil || got != c.want {
			t.Errorf("resolveImportPath(%q) = %q, %v; want %q", c.pat, got, err, c.want)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

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

func TestLanguageVersion(t *testing.T) {
	cases := map[string]string{
		"go1.24.0":       "go1.24",
		"go1.24":         "go1.24",
		"go1.22.11":      "go1.22",
		"":               "",
		"devel +abcdef":  "",
		"weird-go1.24.0": "",
	}
	for in, want := range cases {
		if got := languageVersion(in); got != want {
			t.Errorf("languageVersion(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCompilerFor(t *testing.T) {
	if got := compilerFor(""); got != "gc" {
		t.Errorf("compilerFor(\"\") = %q", got)
	}
	if got := compilerFor("gccgo"); got != "gccgo" {
		t.Errorf("compilerFor(gccgo) = %q", got)
	}
}

func TestStablePath(t *testing.T) {
	p1, err := stablePath()
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(p1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode()&0o100 == 0 {
		t.Errorf("%s is not executable: %v", p1, info.Mode())
	}
	// Content-addressed: a second call returns the same path.
	p2, err := stablePath()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Errorf("stablePath not stable: %s vs %s", p1, p2)
	}
}

func TestPrintDiagsText(t *testing.T) {
	var buf bytes.Buffer
	printDiags(&buf, false, "repro/internal/wire", map[string][]diagJSON{
		"errwrap": {{Posn: "wire.go:10:2", Message: "broken chain"}},
	})
	got := buf.String()
	if !strings.Contains(got, "wire.go:10:2: broken chain [errwrap]") {
		t.Errorf("text output = %q", got)
	}
}

func TestPrintDiagsJSON(t *testing.T) {
	var buf bytes.Buffer
	printDiags(&buf, true, "repro/internal/wire", map[string][]diagJSON{
		"errwrap": {{Posn: "wire.go:10:2", Message: "broken chain"}},
	})
	var out map[string]map[string][]diagJSON
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON %q: %v", buf.String(), err)
	}
	ds := out["repro/internal/wire"]["errwrap"]
	if len(ds) != 1 || ds[0].Message != "broken chain" {
		t.Errorf("JSON round trip = %+v", out)
	}
}

func TestVersionFlagInterface(t *testing.T) {
	var v versionFlag
	if !v.IsBoolFlag() || v.String() != "" || v.Get() != nil {
		t.Error("versionFlag does not satisfy the cmd/go flag contract")
	}
	if err := v.Set("short"); err == nil {
		t.Error("Set(short) should be rejected")
	}
}

// TestRunUnitClean drives the unitchecker path end to end on a synthetic
// dependency-free unit: parse, typecheck, facts file, no findings.
func TestRunUnitClean(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "u.go")
	if err := os.WriteFile(src, []byte("package u\n\nfunc F() int { return 1 }\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	vetx := filepath.Join(dir, "u.vetx")
	cfg := unitConfig{
		ID:         "u",
		Compiler:   "gc",
		Dir:        dir,
		ImportPath: "example/u",
		GoVersion:  "go1.24.0",
		GoFiles:    []string{src},
		VetxOutput: vetx,
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "u.cfg")
	if err := os.WriteFile(cfgPath, data, 0o666); err != nil {
		t.Fatal(err)
	}
	runUnit(cfgPath, nil, options{})
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("facts file was not written: %v", err)
	}
}

func TestRunUnitVetxOnly(t *testing.T) {
	dir := t.TempDir()
	vetx := filepath.Join(dir, "v.vetx")
	cfg := unitConfig{ID: "v", VetxOnly: true, VetxOutput: vetx}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "v.cfg")
	if err := os.WriteFile(cfgPath, data, 0o666); err != nil {
		t.Fatal(err)
	}
	runUnit(cfgPath, nil, options{})
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("facts file was not written in VetxOnly mode: %v", err)
	}
}

// TestStandardUnit: the go command never lists a unit in its own Standard
// map, so the standard library is recognised by GOROOT — and skipped, so
// that the vettool computes facts over exactly the packages the source
// driver does.
func TestStandardUnit(t *testing.T) {
	t.Setenv("GOROOT", filepath.FromSlash("/opt/go"))
	for dir, want := range map[string]bool{
		"/opt/go/src/net":              true,
		"/opt/go/src/vendor/x/y":       true,
		"/opt/go/srcfoo":               false,
		"/home/me/repro/internal/wire": false,
		"internal/core":                false, // module units arrive with relative dirs
	} {
		cfg := unitConfig{ImportPath: "p", Dir: filepath.FromSlash(dir), Standard: map[string]bool{"fmt": true}}
		if got := standardUnit(&cfg); got != want {
			t.Errorf("standardUnit(%s) = %t, want %t", dir, got, want)
		}
	}
	t.Setenv("GOROOT", "")
	if standardUnit(&unitConfig{Dir: filepath.FromSlash("/opt/go/src/net")}) {
		t.Error("without GOROOT nothing can be called standard")
	}
}

func TestSummaryLine(t *testing.T) {
	got := summaryLine(map[string]int{"errkind": 3, "goleak": 1, "quiet": 0})
	want := "monetlint: 4 findings (errkind:3 goleak:1)"
	if got != want {
		t.Errorf("summaryLine = %q, want %q", got, want)
	}
	if got := summaryLine(map[string]int{"poolescape": 1}); got != "monetlint: 1 finding (poolescape:1)" {
		t.Errorf("singular summaryLine = %q", got)
	}
}

func TestPrintTimingJSON(t *testing.T) {
	var buf bytes.Buffer
	printTiming(&buf, true, map[string]time.Duration{
		"errkind": 1500 * time.Microsecond,
		"goleak":  250 * time.Microsecond,
	})
	var out map[string]map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON %q: %v", buf.String(), err)
	}
	if out["timing"]["errkind"] != 1.5 {
		t.Errorf("timing JSON = %+v", out)
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
		if got := resolveImportPath(c.pat, modDir, modPath); got != c.want {
			t.Errorf("resolveImportPath(%q) = %q, want %q", c.pat, got, c.want)
		}
	}
}

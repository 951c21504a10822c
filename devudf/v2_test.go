package devudf

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

// brokenFS fails every read with a non-not-exist error, standing in for a
// permission-denied project directory.
type brokenFS struct{}

func (brokenFS) ReadFile(string) ([]byte, error) {
	return nil, core.Errorf(core.KindIO, "permission denied")
}
func (brokenFS) ListDir(string) ([]string, error) {
	return nil, core.Errorf(core.KindIO, "permission denied")
}
func (brokenFS) WriteFile(string, []byte) error {
	return core.Errorf(core.KindIO, "permission denied")
}

// flakyFS fails the next read of the file named fail, and the next write of
// the file named failWrite, with an IO error that is not not-exist, then
// reads and writes through again.
type flakyFS struct {
	core.FS
	fail, failWrite string
}

func (f *flakyFS) ReadFile(name string) ([]byte, error) {
	if name == f.fail {
		f.fail = ""
		return nil, core.Errorf(core.KindIO, "input/output error")
	}
	return f.FS.ReadFile(name)
}

func (f *flakyFS) WriteFile(name string, data []byte) error {
	if name == f.failWrite {
		f.failWrite = ""
		return core.Errorf(core.KindIO, "no space left on device")
	}
	return f.FS.WriteFile(name, data)
}

// TestFailedMetadataReadKeepsTheProject: only a metadata file that does not
// exist reads as an empty project. Any other read error reaches the caller
// of LoadUDF, List and SaveUDF, and a SaveUDF that could not read the
// metadata writes nothing over it.
func TestFailedMetadataReadKeepsTheProject(t *testing.T) {
	fs := &flakyFS{FS: core.NewMemFS(nil)}
	p := OpenProject(fs, "")
	for _, name := range []string{"a", "b", "c"} {
		if err := p.SaveUDF(UDFInfo{Name: name, Language: "PYTHON"}, "return 1"); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range []struct {
		what string
		run  func() error
	}{
		{"LoadUDF", func() error { _, _, err := p.LoadUDF("a"); return err }},
		{"List", func() error { _, err := p.List(); return err }},
		{"SaveUDF", func() error { return p.SaveUDF(UDFInfo{Name: "d", Language: "PYTHON"}, "return 2") }},
	} {
		fs.fail = p.path(metaFile)
		if err := op.run(); core.KindOf(err) != core.KindIO || !strings.Contains(err.Error(), "input/output error") {
			t.Errorf("%s after a failed metadata read: %v, want the read's IO error", op.what, err)
		}
	}
	if names, err := p.List(); err != nil || strings.Join(names, ",") != "a,b,c" {
		t.Fatalf("the project after failed reads lists %v (%v), want [a b c]", names, err)
	}
}

// TestFailedScriptWriteKeepsTheProject: a SaveUDF whose script cannot be
// written leaves the project listing what it listed before, so no listed
// UDF lacks its file.
func TestFailedScriptWriteKeepsTheProject(t *testing.T) {
	fs := &flakyFS{FS: core.NewMemFS(nil)}
	p := OpenProject(fs, "")
	if err := p.SaveUDF(UDFInfo{Name: "a", Language: "PYTHON"}, "return 1"); err != nil {
		t.Fatal(err)
	}
	fs.failWrite = p.ScriptPath("b")
	if err := p.SaveUDF(UDFInfo{Name: "b", Language: "PYTHON"}, "return 2"); core.KindOf(err) != core.KindIO {
		t.Fatalf("SaveUDF with a failing script write: %v, want the write's IO error", err)
	}
	if names, err := p.List(); err != nil || strings.Join(names, ",") != "a" {
		t.Errorf("the project after a failed save lists %v (%v), want [a]", names, err)
	}
	if _, _, err := p.LoadUDF("b"); core.KindOf(err) != core.KindName {
		t.Errorf("LoadUDF of the unsaved UDF: %v, want a name error", err)
	}
}

func TestLoadSettingsOnlyDefaultsWhenMissing(t *testing.T) {
	// missing file → defaults, no error
	s, err := LoadSettings(core.NewMemFS(nil))
	if err != nil || s.Connection.Port != 50000 {
		t.Fatalf("missing settings must yield defaults: %+v %v", s, err)
	}
	// any other read failure must surface, not silently become defaults
	if _, err := LoadSettings(brokenFS{}); err == nil {
		t.Fatal("IO error must not be masked by defaults")
	} else if !strings.Contains(err.Error(), "permission denied") {
		t.Fatalf("cause lost: %v", err)
	}
	// corrupt JSON still errors
	fs := core.NewMemFS(map[string]string{"devudf.json": "{nope"})
	if _, err := LoadSettings(fs); err == nil {
		t.Fatal("corrupt settings must error")
	}
}

// TestLoadSettingsRefusesWhatNoConnectionCanUse: a hand-edited
// devudf.json with a value Validate refuses, a misspelled key or data
// after the object fails at load, naming the file and the field, instead
// of at the next connect or extract.
func TestLoadSettingsRefusesWhatNoConnectionCanUse(t *testing.T) {
	saved := DefaultSettings()
	saved.Connection.Port = 70000
	if err := SaveSettings(core.NewMemFS(nil), saved); err == nil {
		t.Error("SaveSettings wrote port 70000")
	}
	for body, want := range map[string]string{
		`{"connection": {"Host": "h", "Port": 70000}}`:                             "devudf.json: connection.Port 70000 is outside 1-65535",
		`{"connection": {"Host": "h", "Port": 0}}`:                                 "devudf.json: connection.Port 0 is outside 1-65535",
		`{"connection": {"Host": "h", "Port": 1}, "transfer": {"SampleSize": -5}}`: "devudf.json: transfer.SampleSize -5 is negative",
		`{"connection": {"Host": "", "Port": 1}}`:                                  "devudf.json: connection.Host is empty",
		`{"connection": {"Host": "h", "prot": 50000}}`:                             `devudf.json: json: unknown field "prot"`,
		`{"connection": {"Host": "h", "Port": 1}} {}`:                              "devudf.json: data after the settings object",
	} {
		_, err := LoadSettings(core.NewMemFS(map[string]string{"devudf.json": body}))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("LoadSettings(%s) = %v, want an error containing %q", body, err, want)
		}
	}
	s, err := LoadSettings(core.NewMemFS(map[string]string{"devudf.json": `{"connection": {"Host": "h", "Port": 1}}`}))
	if err != nil || s.ProjectDir != "udfproject" {
		t.Errorf("a minimal valid file: %+v, %v", s, err)
	}
}

func TestOpenHonorsCancelledContext(t *testing.T) {
	params, _ := startServer(t)
	settings := DefaultSettings()
	settings.Connection = params
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Open(cctx, settings, WithFS(core.NewMemFS(nil))); err == nil {
		t.Fatal("Open with cancelled context must fail")
	}
}

func TestOpenVerifiesCredentialsEagerly(t *testing.T) {
	params, _ := startServer(t)
	settings := DefaultSettings()
	settings.Connection = params
	settings.Connection.Password = "wrong"
	if _, err := Open(ctx, settings, WithFS(core.NewMemFS(nil))); err == nil {
		t.Fatal("bad credentials must fail at Open")
	}
}

func TestQueryCancellationThroughClient(t *testing.T) {
	params, _ := startServer(t, `CREATE TABLE t (i INTEGER)`)
	settings := DefaultSettings()
	settings.Connection = params
	c, err := Open(ctx, settings, WithFS(core.NewMemFS(nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Query(cctx, `SELECT i FROM t`); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query must wrap context.Canceled: %v", err)
	}
	// the pool replaces the poisoned connection transparently
	if _, err := c.Query(ctx, `SELECT i FROM t`); err != nil {
		t.Fatalf("pool must recover after a cancelled query: %v", err)
	}
}

func TestPoolStatsThroughClient(t *testing.T) {
	params, _ := startServer(t, `CREATE TABLE t (i INTEGER)`)
	settings := DefaultSettings()
	settings.Connection = params
	c, err := Open(ctx, settings, WithFS(core.NewMemFS(nil)), WithPoolSize(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(ctx, `SELECT i FROM t`); err != nil {
		t.Fatal(err)
	}
	st := c.Pool().StatsSnapshot()
	if st.Size != 2 || st.Dials < 1 {
		t.Fatalf("pool stats: %+v", st)
	}
}

package devudf

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/transform"
)

// The project directory is plain files that any version control can track
// (paper §1): one .py file per UDF plus the signature sidecar, written the
// same way every time, and what is exported is what the file holds.

const (
	udfA = `CREATE FUNCTION a(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return x }`
	udfB = `CREATE FUNCTION b(y DOUBLE) RETURNS DOUBLE LANGUAGE PYTHON { return y }`
)

// filesUnder lists every file below dir in fs, as paths relative to dir,
// walking with ListDir alone; an entry ListDir cannot open is a file.
func filesUnder(fs core.FS, dir string) []string {
	join := func(a, b string) string {
		if a == "" || b == "" {
			return a + b
		}
		return a + "/" + b
	}
	var out []string
	var walk func(rel string)
	walk = func(rel string) {
		names, err := fs.ListDir(join(dir, rel))
		if err != nil {
			if rel != "" {
				out = append(out, rel)
			}
			return
		}
		for _, n := range names {
			walk(join(rel, n))
		}
	}
	walk("")
	return out
}

// readAll reads every named file below dir.
func readAll(t *testing.T, fs core.FS, dir string, names []string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, n := range names {
		b, err := fs.ReadFile(dir + "/" + n)
		if err != nil {
			t.Fatal(err)
		}
		out[n] = string(b)
	}
	return out
}

func TestImportWritesOnlyScriptsAndMetadata(t *testing.T) {
	params, _ := startServer(t, udfA, udfB)
	c := newClient(t, params, "")
	if _, err := c.ImportUDFs(ctx, "a", "b"); err != nil {
		t.Fatal(err)
	}
	got := filesUnder(c.Project.FS(), c.Project.dir)
	if want := []string{".devudf/meta.json", "a.py", "b.py"}; !slices.Equal(got, want) {
		t.Fatalf("the project directory holds %v, want %v", got, want)
	}
}

func TestReimportIsByteIdentical(t *testing.T) {
	params, _ := startServer(t, udfA, udfB)
	c := newClient(t, params, "")
	files := []string{".devudf/meta.json", "a.py", "b.py"}
	var rounds []map[string]string
	for range 2 {
		if _, err := c.ImportUDFs(ctx, "b", "a"); err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, readAll(t, c.Project.FS(), c.Project.dir, files))
	}
	for _, f := range files {
		if rounds[0][f] != rounds[1][f] {
			t.Errorf("%s differs between two imports:\n%s\n---\n%s", f, rounds[0][f], rounds[1][f])
		}
	}
}

func TestExportedBodyIsTheFilesBody(t *testing.T) {
	params, _ := startServer(t, udfA)
	c := newClient(t, params, "")
	if _, err := c.ImportUDFs(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if err := c.EditBody("a", "y = x * 2\nreturn y"); err != nil {
		t.Fatal(err)
	}
	if err := c.ExportUDFs(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	src, err := c.Project.LoadUDFSource("a")
	if err != nil {
		t.Fatal(err)
	}
	body, err := transform.ExtractBody(src, "a")
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(ctx, `SELECT func FROM sys.functions WHERE name = 'a'`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.Cols[0].Strs; len(got) != 1 || got[0] != body {
		t.Fatalf("sys.functions body %q, the file's body %q", got, body)
	}
}

// TestSaveUDFRefusesNonIdentifierNames: a UDF name comes from the server's
// catalog, and the project joins it into a file path and a def line, so
// SaveUDF refuses any name that is not a Python identifier before writing
// anything, and so does an import of such a UDF.
func TestSaveUDFRefusesNonIdentifierNames(t *testing.T) {
	fs := core.NewMemFS(nil)
	p := OpenProject(fs, "")
	if err := p.SaveUDF(UDFInfo{Name: "a", Language: "PYTHON"}, "return 1"); err != nil {
		t.Fatal(err)
	}
	before := filesUnder(fs, "")
	for _, name := range []string{"../escaped", "a/b", "1x"} {
		err := p.SaveUDF(UDFInfo{Name: name, Language: "PYTHON"}, "return 1")
		if core.KindOf(err) != core.KindName || !strings.Contains(err.Error(), name) {
			t.Errorf("SaveUDF(%q) = %v, want a name error naming it", name, err)
		}
		if after := filesUnder(fs, ""); !slices.Equal(after, before) {
			t.Errorf("SaveUDF(%q) left %v, want %v", name, after, before)
		}
	}

	// CREATE refuses the name (its def line does not parse); an old log's
	// replay does not.
	params, db := startServer(t)
	replayUDF(t, db, "../escaped", " return x ")
	c := newClient(t, params, "")
	if _, err := c.ImportUDFs(ctx, "../escaped"); core.KindOf(err) != core.KindName {
		t.Errorf("importing ../escaped: %v, want a name error", err)
	}
	if got := filesUnder(c.Project.FS(), ""); len(got) != 0 {
		t.Errorf("importing ../escaped wrote %v", got)
	}
}

// TestImportKeepsGoingPastARefusedUDF: one UDF the project refuses does not
// keep the others out. ImportUDFs imports every UDF it can and returns one
// error, of the first refusal's kind, that names each UDF it refused.
func TestImportKeepsGoingPastARefusedUDF(t *testing.T) {
	params, db := startServer(t, `CREATE FUNCTION ok_udf(x INTEGER) RETURNS INTEGER LANGUAGE PYTHON { return x }`)
	replayUDF(t, db, "../escaped", " return x ")
	c := newClient(t, params, "")
	imported, err := c.ImportUDFs(ctx, "../escaped", "ok_udf", "absent_udf")
	if !slices.Equal(imported, []string{"ok_udf"}) {
		t.Errorf("imported %v, want [ok_udf]", imported)
	}
	if core.KindOf(err) != core.KindName || !strings.Contains(err.Error(), "../escaped") || !strings.Contains(err.Error(), "absent_udf") {
		t.Errorf("import error %v, want a name error naming ../escaped and absent_udf", err)
	}
	if _, err := c.Project.FS().ReadFile(c.Project.ScriptPath("ok_udf")); err != nil {
		t.Errorf("ok_udf.py: %v", err)
	}
}

package main

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/devudf"
	"repro/internal/bench"
	"repro/internal/core"
)

func TestPrintMenuGolden(t *testing.T) {
	var sb strings.Builder
	printMenu(&sb)
	want := `Main Menu
└── UDF Development
    ├── Settings...            (connection, debug query, transfer options)
    ├── Import UDFs...         (fetch UDFs from the database server)
    └── Export UDFs...         (commit edited UDFs back to the server)
`
	if sb.String() != want {
		t.Fatalf("menu drifted:\n%s", sb.String())
	}
}

func TestApplySetting(t *testing.T) {
	s := devudf.DefaultSettings()
	good := map[string]string{
		"host": "db.example.com", "port": "50123", "database": "prod",
		"user": "alice", "password": "s3cret",
		"query": "SELECT f(i) FROM t", "project": "work",
		"compress": "true", "encrypt": "1", "sample": "5000", "seed": "-3",
	}
	for k, v := range good {
		if err := applySetting(&s, k, v); err != nil {
			t.Fatalf("applySetting(%s=%s): %v", k, v, err)
		}
	}
	if s.Connection.Port != 50123 || !s.Transfer.Compress || !s.Transfer.Encrypt ||
		s.Transfer.SampleSize != 5000 || s.Transfer.Seed != -3 || s.ProjectDir != "work" {
		t.Fatalf("settings not applied: %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("good settings refused: %v", err)
	}
	for _, bad := range []string{"port=abc", "port=70000", "port=0", "sample=x", "sample=-5", "seed=?",
		"color=red", "compress=yes", "encrypt=on", "host=", "project=", "nokeyvalue"} {
		fs := core.NewMemFS(nil)
		if err := cmdSettings(fs, []string{"-set", bad}); err == nil {
			t.Errorf("settings -set %s should fail", bad)
		}
		if _, err := fs.ReadFile("devudf.json"); !core.IsNotExist(err) {
			t.Errorf("settings -set %s saved the settings", bad)
		}
	}
}

// TestSettingsReadErrorNamesItsKindOnce: a devudf.json that cannot be read
// is reported with one io tag, not one per layer the error passed through.
func TestSettingsReadErrorNamesItsKindOnce(t *testing.T) {
	t.Chdir(t.TempDir())
	if err := os.Mkdir("devudf.json", 0o755); err != nil {
		t.Fatal(err)
	}
	const want = "io error: read settings: read devudf.json: is a directory"
	if err := cmdSettings(core.OSFS{}, nil); err == nil || err.Error() != want {
		t.Fatalf("settings with devudf.json a directory: %v, want %q", err, want)
	}
}

// TestDebugREPLScripted drives the CLI debugger with a scripted session
// over the paper's buggy mean_deviation: set a breakpoint, run, inspect,
// step, continue to completion.
func TestDebugREPLScripted(t *testing.T) {
	fx, err := bench.StartServer(
		`CREATE TABLE numbers (i INTEGER)`,
		`INSERT INTO numbers VALUES (1), (2), (3), (4), (100)`,
		bench.MeanDeviationBuggy,
	)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.Close()
	settings := devudf.DefaultSettings()
	settings.Connection = fx.Params
	settings.DebugQuery = `SELECT mean_deviation(i) FROM numbers`
	client, err := devudf.Open(context.Background(), settings, devudf.WithFS(core.NewMemFS(nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.ImportUDFs(context.Background(), "mean_deviation"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ExtractInputs(context.Background(), "mean_deviation"); err != nil {
		t.Fatal(err)
	}
	sess, err := client.NewDebugSession(context.Background(), "mean_deviation", false)
	if err != nil {
		t.Fatal(err)
	}
	// find the buggy line in the generated script
	src, _ := client.Project.LoadUDFSource("mean_deviation")
	line := 0
	for i, ln := range strings.Split(src, "\n") {
		if strings.Contains(ln, "distance += column[i] - mean") {
			line = i + 1
		}
	}
	script := strings.Join([]string{
		"list",
		"b " + itoa(line) + " i == 3",
		"c",
		"p distance",
		"locals",
		"stack",
		"n",
		"c",
		"q",
	}, "\n")
	var out strings.Builder
	if err := debugREPL(newLocalDriver(sess), strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"breakpoint set at line " + itoa(line),
		"stopped (breakpoint)",
		"-60.0",            // distance after i==3 iterations
		"mean_deviation",   // stack frame
		"program finished", // terminal event
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("REPL output missing %q:\n%s", want, got)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestDebugREPLQuitBeforeStart(t *testing.T) {
	fx, err := bench.StartServer(bench.MeanDeviationBuggy)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.Close()
	settings := devudf.DefaultSettings()
	settings.Connection = fx.Params
	client, err := devudf.Open(context.Background(), settings, devudf.WithFS(core.NewMemFS(nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.ImportUDFs(context.Background(), "mean_deviation"); err != nil {
		t.Fatal(err)
	}
	sess, err := client.NewDebugSession(context.Background(), "mean_deviation", false)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := debugREPL(newLocalDriver(sess), strings.NewReader("p x\nlocals\nq\n"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "not running") {
		t.Fatalf("inspection before start should say so:\n%s", out.String())
	}
}

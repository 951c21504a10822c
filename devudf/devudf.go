// Package devudf is this reproduction's implementation of the paper's
// primary contribution: the devUDF plugin (EDBT 2019), which lets a
// developer import MonetDB/Python UDFs out of a running database server
// into an IDE-style project, edit and version them as ordinary files, debug
// them locally with a real interactive debugger on locally-extracted input
// data (optionally sampled, compressed and encrypted in transit), and
// export the edited bodies back to the server — including nested UDFs
// reached through loopback queries.
//
// The CLI in cmd/devudf drives this package with the same verbs the
// paper's figures show (settings / import / export / run / debug);
// examples/ holds runnable walkthroughs, and the paper's two demo scenarios
// are cmd/experiments -only SA / -only SB.
package devudf

import (
	"encoding/json"

	"repro/internal/core"
	"repro/internal/debug"
	"repro/internal/script"
	"repro/internal/transfer"
	"repro/internal/udfrt"
	"repro/internal/udfrt/gort"
	"repro/internal/wire"
)

// RegisterGoUDF registers a typed Go function in this process's native UDF
// table so that Client.RunLocal can execute imported LANGUAGE GO UDFs on
// their extracted inputs — the client-side mirror of the server embedder's
// DB.RegisterGoUDF. Supported signatures take column slices ([]int64,
// []float64, []string, []bool, [][]byte) or scalars of those element types
// and return one value per result column plus an optional trailing error.
// Argument slices are read-only (the engine may pass its own storage
// vectors); allocate fresh slices for results:
//
//	devudf.RegisterGoUDF("haversine", func(lat1, lon1, lat2, lon2 []float64) []float64 { ... })
func RegisterGoUDF(name string, fn any) error { return gort.Register(name, fn) }

// LanguageDebuggable reports whether the runtime serving a CREATE FUNCTION
// LANGUAGE clause supports interactive debugging ("" means PYTHON; false
// for unknown languages). The CLI uses it to annotate listings before a
// user reaches for the debug verb.
func LanguageDebuggable(language string) bool { return udfrt.LanguageDebuggable(language) }

// ConnParams are the five connection parameters of the settings window
// (paper Fig. 2): host, port, database, user, password.
type ConnParams = wire.ConnParams

// TransferOptions are the data-transfer options of §2.1–2.2: Compress,
// Encrypt (keyed by the connection password) and SampleSize.
type TransferOptions = transfer.Options

// DebugSession is an interactive local debug session over a UDF script:
// breakpoints (optionally conditional), step over/into/out, pause, stack
// and variable inspection, watch expressions. It is the debugger's one
// session form, driven from this process by debug.Local: the script runs on
// a goroutine of the session's own, and Start and each step return the
// stop they lead to. RemoteDebugSession drives the same session inside the
// server.
type DebugSession struct {
	*debug.Local
	script *scriptRun
}

// Result returns the script's module globals and its error once it has
// finished.
func (s *DebugSession) Result() (*script.Env, error) {
	if _, ended := s.Ended(); !ended {
		return nil, core.Errorf(core.KindConstraint, "debuggee has not finished")
	}
	return s.script.globals, s.script.err
}

// Stdout returns what the script has printed so far. Call it while the
// script is paused or after it has finished.
func (s *DebugSession) Stdout() string { return s.script.stdout.String() }

// DebugEvent is a debugger stop event.
type DebugEvent = debug.Event

// Debug stop reasons.
const (
	ReasonEntry      = debug.ReasonEntry
	ReasonBreakpoint = debug.ReasonBreakpoint
	ReasonStep       = debug.ReasonStep
	ReasonDone       = debug.ReasonDone
	ReasonException  = debug.ReasonException
)

// Settings is the plugin configuration the settings window edits
// (paper Fig. 2): connection parameters, the SQL query that invokes the
// to-be-debugged UDF, and the data-transfer options.
type Settings struct {
	Connection ConnParams      `json:"connection"`
	DebugQuery string          `json:"debug_query"`
	Transfer   TransferOptions `json:"transfer"`
	// ProjectDir is where imported UDF files live; defaults to "udfproject".
	ProjectDir string `json:"project_dir"`
}

// settingsFile is where Save/Load persist the settings inside the project
// file system.
const settingsFile = "devudf.json"

// DefaultSettings mirrors the defaults the settings window opens with.
func DefaultSettings() Settings {
	return Settings{
		Connection: ConnParams{
			Host:     "127.0.0.1",
			Port:     50000,
			Database: "demo",
			User:     "monetdb",
			Password: "monetdb",
		},
		ProjectDir: "udfproject",
	}
}

// clientConfig collects the Open options.
type clientConfig struct {
	fs       core.FS
	poolSize int
}

// Option customizes Open.
type Option func(*clientConfig)

// WithFS selects the file system the project workspace lives in. Default:
// the process file system (core.OSFS).
func WithFS(fs core.FS) Option {
	return func(c *clientConfig) { c.fs = fs }
}

// WithPoolSize bounds the client's connection pool (default 4).
func WithPoolSize(n int) Option {
	return func(c *clientConfig) { c.poolSize = n }
}

// SaveSettings persists settings as JSON in fs.
func SaveSettings(fs core.FS, s Settings) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return core.Wrapf(core.KindIO, err, "encode settings: %v", err)
	}
	return fs.WriteFile(settingsFile, data)
}

// LoadSettings reads settings from fs, returning defaults when no file
// exists yet. Any other read failure (permissions, IO) is surfaced rather
// than silently masked by defaults.
func LoadSettings(fs core.FS) (Settings, error) {
	data, err := fs.ReadFile(settingsFile)
	if err != nil {
		if core.IsNotExist(err) {
			return DefaultSettings(), nil
		}
		return Settings{}, core.Wrapf(core.KindIO, err, "read settings: %v", err)
	}
	var s Settings
	if err := json.Unmarshal(data, &s); err != nil {
		return Settings{}, core.Wrapf(core.KindIO, err, "parse settings: %v", err)
	}
	if s.ProjectDir == "" {
		s.ProjectDir = "udfproject"
	}
	return s, nil
}

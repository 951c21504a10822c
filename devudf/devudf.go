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
	"bytes"
	"encoding/json"
	"errors"

	"repro/internal/core"
	"repro/internal/debug"
	"repro/internal/script"
	"repro/internal/transfer"
	"repro/internal/udfrt"
	"repro/internal/wire"
)

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

// Validate refuses settings that no connection or extract can use: a
// port outside 1–65535, a negative sample size, an empty host or project
// directory. The error names the field as devudf.json spells it.
func (s Settings) Validate() error {
	switch {
	case s.Connection.Port < 1 || s.Connection.Port > 65535:
		return core.Errorf(core.KindConstraint, "%s: connection.Port %d is outside 1-65535", settingsFile, s.Connection.Port)
	case s.Transfer.SampleSize < 0:
		return core.Errorf(core.KindConstraint, "%s: transfer.SampleSize %d is negative", settingsFile, s.Transfer.SampleSize)
	case s.Connection.Host == "":
		return core.Errorf(core.KindConstraint, "%s: connection.Host is empty", settingsFile)
	case s.ProjectDir == "":
		return core.Errorf(core.KindConstraint, "%s: project_dir is empty", settingsFile)
	}
	return nil
}

// SaveSettings persists valid settings as JSON in fs.
func SaveSettings(fs core.FS, s Settings) error {
	if err := s.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return core.Wrapf(core.KindIO, err, "encode settings: %v", err)
	}
	return fs.WriteFile(settingsFile, data)
}

// LoadSettings reads settings from fs, returning defaults when no file
// exists yet. Any other read failure (permissions, IO) is surfaced rather
// than silently masked by defaults, and so are a key the settings do not
// have and a value Validate refuses.
func LoadSettings(fs core.FS) (Settings, error) {
	data, err := fs.ReadFile(settingsFile)
	if err != nil {
		if core.IsNotExist(err) {
			return DefaultSettings(), nil
		}
		return Settings{}, core.Wrapf(core.KindIO, err, "read settings: %v", err)
	}
	var s Settings
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err = dec.Decode(&s)
	if err == nil && dec.More() {
		err = errors.New("data after the settings object")
	}
	if err != nil {
		return Settings{}, core.Wrapf(core.KindIO, err, "parse settings: %s: %v", settingsFile, err)
	}
	if s.ProjectDir == "" {
		s.ProjectDir = "udfproject"
	}
	if err := s.Validate(); err != nil {
		return Settings{}, err
	}
	return s, nil
}

// Package suite enumerates the monetlint analyzers in the order they run.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/colinvariant"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/errwrap"
	"repro/internal/analysis/goleak"
	"repro/internal/analysis/interruptloop"
	"repro/internal/analysis/lockblock"
	"repro/internal/analysis/wireswitch"
)

// Analyzers returns the full monetlint suite.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		colinvariant.Analyzer,
		ctxflow.Analyzer,
		errwrap.Analyzer,
		goleak.Analyzer,
		interruptloop.Analyzer,
		lockblock.Analyzer,
		wireswitch.Analyzer,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Package suite enumerates the monetlint analyzers in the order they run.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/colinvariant"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/errwrap"
	"repro/internal/analysis/lockblock"
)

// Analyzers returns the full monetlint suite.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		colinvariant.Analyzer,
		ctxflow.Analyzer,
		errwrap.Analyzer,
		lockblock.Analyzer,
	}
}

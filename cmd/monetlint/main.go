// Command monetlint runs the repo's static-analysis suite
// (internal/analysis/suite) over the module:
//
//	go run ./cmd/monetlint [package patterns]   (default ./...)
//
// It loads packages from source, prints one `file:line:col: message
// [analyzer]` line per finding to stderr and exits 2 if there were any. It
// takes no flags: the suite is four analyzers and always runs whole.
package main

import (
	"os"

	"repro/internal/analysis/suite"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(lint(patterns, suite.Analyzers(), os.Stderr))
}

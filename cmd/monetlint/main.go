// Command monetlint runs the repo's static-analysis suite
// (internal/analysis/suite) over the module:
//
//	go run ./cmd/monetlint [flags] [package patterns]   (default ./...)
//
// It loads packages from source, analyzes them in dependency order with
// one in-memory fact store, prints one `file:line:col: message [analyzer]`
// line per finding to stderr and exits 2 if there were any.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: monetlint [flags] [package patterns]\n\nAnalyzers:\n")
		for _, a := range suite.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		flag.PrintDefaults()
	}
	timing := flag.Bool("timing", false, "report per-analyzer wall time")
	enabled := map[string]*bool{}
	for _, a := range suite.Analyzers() {
		enabled[a.Name] = flag.Bool(a.Name, false, "run only the "+a.Name+" analyzer (default: all)")
	}
	flag.Parse()

	analyzers := suite.Analyzers()
	var picked []*analysis.Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			picked = append(picked, a)
		}
	}
	if len(picked) > 0 {
		analyzers = picked
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(lint(patterns, analyzers, *timing, os.Stdout, os.Stderr))
}

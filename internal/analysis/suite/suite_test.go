package suite_test

import (
	"slices"
	"testing"

	"repro/internal/analysis/suite"
)

// TestAnalyzers pins the roster: an analyzer joins or leaves the suite in a
// change that edits this list and says why.
func TestAnalyzers(t *testing.T) {
	var names []string
	for _, a := range suite.Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing a name, doc, or run function", a.Name)
		}
		names = append(names, a.Name)
	}
	want := []string{"colinvariant", "ctxflow", "errwrap", "lockblock"}
	if !slices.Equal(names, want) {
		t.Fatalf("suite runs %v, want exactly %v", names, want)
	}
}

package suite_test

import (
	"strings"
	"testing"

	"repro/internal/analysis/suite"
)

func TestAnalyzers(t *testing.T) {
	as := suite.Analyzers()
	if len(as) != 7 {
		t.Fatalf("expected 7 analyzers, got %d", len(as))
	}
	seen := map[string]bool{}
	for _, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing a name, doc, or run function", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if strings.ContainsAny(a.Name, " \t\n") {
			t.Errorf("analyzer name %q is not a flat identifier", a.Name)
		}
	}
	for _, want := range []string{
		"colinvariant", "ctxflow", "errwrap", "goleak",
		"interruptloop", "lockblock", "wireswitch",
	} {
		if !seen[want] {
			t.Errorf("suite is missing analyzer %q", want)
		}
	}
}

func TestByName(t *testing.T) {
	if a := suite.ByName("errwrap"); a == nil || a.Name != "errwrap" {
		t.Fatalf("ByName(errwrap) = %v", a)
	}
	if a := suite.ByName("nope"); a != nil {
		t.Fatalf("ByName(nope) = %v, want nil", a)
	}
}

package debug

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestPackageHasNoSocketProtocol pins that this package stays a debugger
// and nothing else: remote debugging is the MsgDebug sub-protocol of the
// database connection (internal/wire), and a package that can neither open
// a socket nor frame nor encode a message cannot grow a second one.
func TestPackageHasNoSocketProtocol(t *testing.T) {
	banned := map[string]bool{"net": true, "bufio": true, "encoding/json": true}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); banned[path] {
				t.Errorf("%s imports %q; remote debugging belongs to internal/wire's MsgDebug", name, path)
			}
		}
	}
}

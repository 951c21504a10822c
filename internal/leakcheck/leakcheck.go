// Package leakcheck fails a package's tests when a goroutine running, or
// started by, this module's code is still alive after the last test.
// Packages that own goroutines call it from TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long a goroutine that has been told to stop may take to
// return. Only a failing verdict waits it out: the first clean snapshot
// passes.
const grace = 5 * time.Second

// Main runs the package's tests and exits with their code, or with 1 and
// the surviving stacks if they passed but left goroutines behind.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if left := survivors(); len(left) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) outlived the tests:\n\n%s\n",
				len(left), strings.Join(left, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// survivors returns no stacks as soon as a snapshot has none, and
// otherwise what is still there when grace runs out.
func survivors() []string {
	deadline := time.Now().Add(grace)
	for wait := 50 * time.Microsecond; ; wait = min(2*wait, 100*time.Millisecond) {
		left := moduleStacks()
		if len(left) == 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(wait)
	}
}

// moduleStacks snapshots every goroutine but the caller's and keeps those
// with a repro/ function, or a repro/ creator, on the stack.
func moduleStacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	stacks := strings.Split(strings.TrimSpace(string(buf)), "\n\n")
	for _, g := range stacks[1:] { // the first stanza is the calling goroutine
		for _, line := range strings.Split(g, "\n") {
			if strings.HasPrefix(line, "repro/") || strings.HasPrefix(line, "created by repro/") {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

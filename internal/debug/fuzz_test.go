package debug

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/script"
)

// FuzzSteppedRunAgrees runs every program that parses twice: plainly, and
// under a local debug session that stops on entry and steps into every
// line, reading the locals, the globals and the stack at each stop. The
// debugger only watches: both runs must leave the same globals, print the
// same output, fail with the same error text and count the same steps.
func FuzzSteppedRunAgrees(f *testing.F) {
	for _, seed := range scriptFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		mod, err := script.Parse("fuzz.py", src)
		if err != nil {
			return
		}
		plain := runOutcome(mod, func(in *script.Interp, run func() error) error { return run() })
		stepped := runOutcome(mod, func(in *script.Interp, run func() error) error {
			s := NewLocal(New(Config{StopOnEntry: true}), in, mod.Lines, run)
			defer s.Kill() // a failed check leaves the debuggee paused
			ev := s.Start()
			for !ev.Terminal {
				if _, err := s.Locals(); err != nil {
					t.Fatalf("locals at %+v: %v", ev, err)
				}
				if _, err := s.GlobalVars(); err != nil {
					t.Fatalf("globals at %+v: %v", ev, err)
				}
				if stack, err := s.Stack(); err != nil || len(stack) == 0 || stack[0].Line != ev.Line {
					t.Fatalf("stack at %+v: %v %v", ev, stack, err)
				}
				ev = s.StepInto()
			}
			return ev.Err
		})
		if plain != stepped {
			t.Fatalf("%q runs differently when stepped:\n plain   %s\n stepped %s", src, plain, stepped)
		}
	})
}

// runOutcome runs mod in a fresh interpreter capped at 5000 steps through
// drive, which calls run once, and renders what it left behind: its
// globals, what it printed, its error and its step count.
func runOutcome(mod *script.Module, drive func(in *script.Interp, run func() error) error) string {
	var out, sb strings.Builder
	in := script.NewInterp()
	in.Stdout = &out
	in.MaxSteps = 5000
	var env *script.Env
	err := drive(in, func() (err error) {
		env, err = in.Run(mod)
		return err
	})
	vars := env.Snapshot()
	for _, name := range slices.Sorted(maps.Keys(vars)) {
		fmt.Fprintf(&sb, "%s=%s ", name, vars[name].Repr())
	}
	fmt.Fprintf(&sb, "| stdout %q | error %v | steps %d", out.String(), err, in.Steps())
	return sb.String()
}

// scriptFuzzSeeds reads the interpreter's fuzz seeds out of the source of
// the package that runs them, so this fuzzer starts from every program
// FuzzRunHookedAgrees starts from without a copy to keep in step.
func scriptFuzzSeeds(f *testing.F) []string {
	f.Helper()
	file, err := goparser.ParseFile(gotoken.NewFileSet(), "../script/fuzz_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	var out []string
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || spec.Names[0].Name != "fuzzSeeds" {
			return true
		}
		for _, e := range spec.Values[0].(*ast.CompositeLit).Elts {
			seed, err := strconv.Unquote(e.(*ast.BasicLit).Value)
			if err != nil {
				f.Fatal(err)
			}
			out = append(out, seed)
		}
		return false
	})
	if len(out) == 0 {
		f.Fatal("no fuzzSeeds in ../script/fuzz_test.go")
	}
	return out
}

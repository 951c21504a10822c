package conformance

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	_ "repro/internal/mllib" // the sklearn shim train_rnforest imports
	"repro/internal/script"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/transform"
	"repro/internal/udfrt/pyrt"
)

// A column argument reaches a PYTHON UDF as a list that wraps the column's
// own vector (pyrt.ColumnToValue). TestBoxedAndColumnBackedAgree runs every
// PYTHON UDF the repo ships twice — once on such a list, once on a plain
// list of the same cells boxed one by one — and requires that nothing a UDF
// or its caller can observe tells the two apart.

type udfBody struct {
	name   string
	params []string
	body   string
}

// shippedUDFs gathers the bodies: the conformance catalog, every CREATE
// FUNCTION ... LANGUAGE PYTHON literal in the sources of internal/bench,
// cmd/experiments and examples/, and the bare body those programs install
// with EditBody.
func shippedUDFs(t *testing.T) []udfBody {
	t.Helper()
	udfs := []udfBody{
		{FnDouble, []string{"x"}, pythonBodies[FnDouble]},
		{FnAddScaled, []string{"x", "f"}, pythonBodies[FnAddScaled]},
		{FnFail, []string{"x"}, pythonBodies[FnFail]},
		{FnMinMax, []string{"x"}, pythonBodies[FnMinMax]},
		{"mean_deviation_fixed", []string{"column"}, bench.MeanDeviationFixedBody},
	}
	root := filepath.Join("..", "..", "..")
	found := 0
	for _, dir := range []string{"internal/bench", "cmd/experiments", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(file, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				sql, _ := strconv.Unquote(lit.Value)
				if !strings.HasPrefix(sql, "CREATE") || !strings.Contains(sql, "LANGUAGE PYTHON") {
					return true
				}
				st, err := sqlparse.Parse(sql)
				cf, ok := st.(*sqlparse.CreateFunction)
				if err != nil || !ok {
					t.Errorf("%s: a CREATE FUNCTION literal does not parse: %v", path, err)
					return true
				}
				udfs = append(udfs, udfBody{cf.Name + "@" + filepath.Base(filepath.Dir(path)), cf.Params.Names(), cf.Body})
				found++
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if found < 8 {
		t.Fatalf("found %d PYTHON UDF literals in the sources, expected at least the 8 known ones: is the scan broken?", found)
	}
	return udfs
}

// laneUDFs exercise, beyond what the shipped bodies do, every operation the
// column-backed list serves from its typed slices and every way of writing
// to it.
var laneUDFs = []udfBody{
	{"reads", []string{"c"}, `n = len(c)
if n == 0:
    return [n, c[0:3], 3 in c, list(c), sorted(c), c == list(c)]
return [n, c[0], c[-1], c[0:3], c[1:], c[:-1], 3 in c, None in c, sum(c), min(c), max(c), sorted(c), sorted(c, reverse=True), list(c), c + c, c * 2, c == list(c), c.count(c[0]), c.index(c[-1])]`},
	{"iterates", []string{"c"}, `acc = []
for v in c:
    acc.append(v)
for i in range(0, len(c)):
    acc.append(c[i])
return acc + [v for v in c if v != None] + list(reversed(c)) + [p for p in enumerate(c)] + list(zip(c, c))`},
	{"numpy", []string{"c"}, `import numpy
return [numpy.sum(c), numpy.mean(c), numpy.std(c), numpy.median(c), numpy.array(c), numpy.abs(c)]`},
	{"arithmetic", []string{"c"}, `out = []
for v in c:
    out.append([v + 1, v * 2.5, v / 3, v // 2, v % 3, v ** 2, -v, abs(v), int(v), float(v), round(v), min(v, 2), max(v, 2.5), v == 1, v < 2, v >= 1.5, not v, v and 1, v or 0])
return out`},
	{"writes", []string{"column"}, `column[0] = 7
column.append(1)
column.sort()
return column`},
	{"writes_other_type", []string{"c"}, `c[0] = 1.5
c[-1] = 'x'
c.append(None)
return c`},
	{"writes_while_looping", []string{"c"}, `seen = []
for v in c:
    c[len(c) - 1] = 42
    seen.append(v)
return [seen, c]`},
	{"mutators", []string{"c"}, `d = c.copy()
c.extend(c)
c.insert(1, 9)
p = c.pop()
c.remove(9)
c.reverse()
del c[0]
c.sort(reverse=True)
return [c, d, p]`},
	{"returns_argument", []string{"c"}, `return c`},
	{"returns_slice", []string{"c"}, `return c[1:]`},
	{"returns_range", []string{"c"}, `return range(0, len(c))`},
	{"pickles", []string{"c"}, `import pickle
return [pickle.loads(pickle.dumps(c)), pickle.loads(pickle.dumps(range(0, len(c))))]`},
	{"unpacks", []string{"c"}, `a, b = c[0:2]
return (a, b, {'k': c, 1: c[0]})`},
}

// argColumns is the grid of argument columns each UDF runs over: int,
// float, str and bool, with and without NULLs, empty, one row and several.
func argColumns() []*storage.Column {
	var cols []*storage.Column
	for _, typ := range []storage.Type{storage.TInt, storage.TFloat, storage.TStr, storage.TBool} {
		for _, rows := range []int{0, 1, 5} {
			for _, nulls := range []bool{false, true} {
				if nulls && rows == 0 {
					continue
				}
				col := storage.NewColumn(fmt.Sprintf("%s_%d_nulls=%v", typ, rows, nulls), typ)
				for i := 0; i < rows; i++ {
					if nulls && i%2 == 0 {
						col.AppendNull()
						continue
					}
					// 300+ so that boxing an int allocates, repeats so that sort and count see ties
					if err := col.AppendValue([]any{int64(300 + i%3), 1.5 * float64(i%3), fmt.Sprint("s", i%3), i%2 == 1}[typ-storage.TInt]); err != nil {
						panic(err)
					}
				}
				cols = append(cols, col)
			}
		}
	}
	return cols
}

// outcome is everything one run of a UDF lets anyone observe.
type outcome struct {
	Result, Err, Pickle, PickleErr string
	Steps                          int64
	Args                           []string // the argument lists after the call
}

func runUDF(t *testing.T, u udfBody, args []script.Value) outcome {
	t.Helper()
	mod, err := script.Parse(u.name, transform.WrapFunction("udf", u.params, u.body))
	if err != nil {
		t.Fatalf("%s does not parse: %v", u.name, err)
	}
	in := script.NewInterp()
	in.MaxSteps = 200_000
	env, err := in.Run(mod)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := env.Get("udf")
	before := in.Steps()
	var o outcome
	v, err := in.Call(fn, args)
	o.Steps = in.Steps() - before
	if err != nil {
		o.Err = err.Error()
	} else {
		o.Result = v.TypeName() + " " + v.Repr()
		b, err := script.Marshal(v)
		o.Pickle = string(b)
		if err != nil {
			o.PickleErr = err.Error()
		}
	}
	for _, a := range args {
		o.Args = append(o.Args, a.Repr())
	}
	return o
}

func TestBoxedAndColumnBackedAgree(t *testing.T) {
	for _, u := range append(shippedUDFs(t), laneUDFs...) {
		for _, col := range argColumns() {
			var boxed, backed []script.Value
			var cols []*storage.Column
			for range u.params {
				c := col.Clone()
				cells := make([]script.Value, c.Len())
				for i := range cells {
					cells[i] = pyrt.CellToValue(c, i)
				}
				boxed = append(boxed, script.NewList(cells...))
				backed = append(backed, pyrt.ColumnToValue(c, true))
				cols = append(cols, c)
			}
			want, got := runUDF(t, u, boxed), runUDF(t, u, backed)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s over %s:\n boxed         %+v\n column-backed %+v", u.name, col.Name, want, got)
			}
			for _, c := range cols {
				if !reflect.DeepEqual(c, col) {
					t.Errorf("%s over %s wrote through to the column: %v", u.name, col.Name, c)
				}
			}
		}
	}
}

// TestUnmarshalLaneAgreesWithBoxed is the same differential for the pickle
// decoder: every argument is pickled, then decoded once through
// script.UnmarshalColumns (a numeric column lands in a typed lane) and once
// through script.Unmarshal (every cell boxed), and each shipped UDF must not
// be able to tell which it was given. Both decodings pickle back to the bytes
// they came from.
func TestUnmarshalLaneAgreesWithBoxed(t *testing.T) {
	for _, u := range append(shippedUDFs(t), laneUDFs...) {
		for _, col := range argColumns() {
			raw, err := script.Marshal(pyrt.ColumnToValue(col, true))
			if err != nil {
				t.Fatal(err)
			}
			var boxed, lanes []script.Value
			for range u.params {
				b, err := script.Unmarshal(raw)
				if err != nil {
					t.Fatal(err)
				}
				l, err := script.UnmarshalColumns(raw)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range []script.Value{b, l} {
					if again, err := script.Marshal(v); err != nil || !bytes.Equal(again, raw) {
						t.Fatalf("%s does not pickle back to its bytes: %v", col.Name, err)
					}
				}
				// a lane needs a number to name it: an all-NULL column stays boxed
				numbers := false
				for i := 0; i < col.Len(); i++ {
					numbers = numbers || ((col.Typ == storage.TInt || col.Typ == storage.TFloat) && !col.IsNull(i))
				}
				if (l.(*script.ListVal).Items == nil) != numbers {
					t.Fatalf("%s: decoded into the wrong lane: Items %v", col.Name, l.(*script.ListVal).Items)
				}
				if got := b.(*script.ListVal).Items; len(got) != col.Len() {
					t.Fatalf("%s: Unmarshal left %d boxed cells of %d", col.Name, len(got), col.Len())
				}
				boxed, lanes = append(boxed, b), append(lanes, l)
			}
			want, got := runUDF(t, u, boxed), runUDF(t, u, lanes)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s over %s:\n boxed %+v\n lane  %+v", u.name, col.Name, want, got)
			}
		}
	}
}

// TestColumnBackedResultIsTheBoxedOne checks the way back: whatever list a
// UDF returns, ValueToColumn fills the same column from it in either
// representation, for every declared return type.
func TestColumnBackedResultIsTheBoxedOne(t *testing.T) {
	for _, col := range argColumns() {
		for _, typ := range []storage.Type{storage.TInt, storage.TFloat, storage.TStr, storage.TBool} {
			cells := make([]script.Value, col.Len())
			for i := range cells {
				cells[i] = pyrt.CellToValue(col, i)
			}
			want, werr := pyrt.ValueToColumn(script.NewList(cells...), "r", typ)
			got, gerr := pyrt.ValueToColumn(pyrt.ColumnToValue(col.Clone(), true), "r", typ)
			if fmt.Sprint(werr) != fmt.Sprint(gerr) {
				t.Fatalf("%s as %s: boxed error %v, column-backed %v", col.Name, typ, werr, gerr)
			}
			if werr != nil {
				continue
			}
			var w, g bytes.Buffer
			for i := 0; i < want.Len(); i++ {
				fmt.Fprintln(&w, want.FormatValue(i))
			}
			for i := 0; i < got.Len(); i++ {
				fmt.Fprintln(&g, got.FormatValue(i))
			}
			if w.String() != g.String() {
				t.Errorf("%s as %s: boxed gives\n%s column-backed\n%s", col.Name, typ, w.String(), g.String())
			}
		}
	}
}

// TestWrapFunctionIndentsEveryLineOutsideStrings pins WrapFunction to the
// line-by-line indentation it always had — four spaces in front of every
// non-blank line, a blank line left empty — for every shipped body without
// a multi-line string; only such a string's own lines are left alone.
func TestWrapFunctionIndentsEveryLineOutsideStrings(t *testing.T) {
	compared := 0
	for _, u := range append(shippedUDFs(t), laneUDFs...) {
		toks, err := script.NewLexer(u.body).Tokens()
		if err != nil {
			t.Fatalf("%s does not lex: %v", u.name, err)
		}
		if slices.ContainsFunc(toks, func(tk script.Token) bool { return tk.EndLine > tk.Line }) {
			continue
		}
		want := "def udf(" + strings.Join(u.params, ", ") + "):\n"
		for _, ln := range strings.Split(u.body, "\n") {
			if strings.TrimSpace(ln) != "" {
				want += "    " + ln
			}
			want += "\n"
		}
		if got := transform.WrapFunction("udf", u.params, u.body); got != want {
			t.Errorf("%s: WrapFunction =\n%s\nwant\n%s", u.name, got, want)
		}
		compared++
	}
	if compared < 20 {
		t.Fatalf("compared %d bodies: is the corpus scan broken?", compared)
	}
}

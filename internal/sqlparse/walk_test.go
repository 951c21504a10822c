package sqlparse

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

var exprType = reflect.TypeOf((*Expr)(nil)).Elem()

// refExprs counts every expression reachable from v — through every field,
// slice and interface of every node, by reflection, so a clause or a node
// kind added later is reached without editing this — except ORDER BY
// positions, which are syntax.
func refExprs(v reflect.Value, seen map[Expr]int) {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if v.IsNil() {
			return
		}
		if v.Kind() == reflect.Pointer && v.Type().Implements(exprType) {
			seen[v.Interface().(Expr)]++
		}
		refExprs(v.Elem(), seen)
	case reflect.Struct:
		if o, ok := v.Interface().(OrderItem); ok {
			if _, pos := o.Expr.(*IntLit); pos {
				return
			}
		}
		for i := 0; i < v.NumField(); i++ {
			refExprs(v.Field(i), seen)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			refExprs(v.Index(i), seen)
		}
	}
}

// fuzzParseAllCorpus is FuzzParseAll's corpus: its seeds and the inputs
// checked in under testdata.
func fuzzParseAllCorpus(f *testing.F) []string {
	f.Helper()
	corpus := append(append([]string(nil), sqlFuzzSeeds...), "SELECT 1; SELECT 2;\nCREATE TABLE t (i INTEGER);", "; ;;")
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParseAll", "*"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no checked-in FuzzParseAll corpus: %v", err)
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		_, lit, _ := strings.Cut(string(b), "string(")
		s, err := strconv.Unquote(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(lit), ")")))
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		corpus = append(corpus, s)
	}
	return corpus
}

// FuzzWalkVisitsEveryExpr requires Edit to visit each expression of a
// statement exactly as often as the reflective walk reaches it, so "one
// walker" stays true as clauses and node kinds are added.
func FuzzWalkVisitsEveryExpr(f *testing.F) {
	for _, sql := range fuzzParseAllCorpus(f) {
		f.Add(sql)
	}
	f.Add("SELECT g, count(*) FROM t GROUP BY g HAVING myudf(g) > 0 ORDER BY 2, -g")
	f.Add("SELECT f(i IS NULL, CAST(-i AS DOUBLE)) FROM (SELECT i FROM t WHERE i IN (SELECT 1)) AS s")
	f.Add("SELECT * FROM g((SELECT a FROM t WHERE NOT a), 1 + ?) WHERE x IS NOT NULL")
	f.Fuzz(func(t *testing.T, sql string) {
		stmts, err := ParseAll(sql)
		if err != nil {
			return
		}
		for _, st := range stmts {
			want := map[Expr]int{}
			refExprs(reflect.ValueOf(st), want)
			got := map[Expr]int{}
			Edit(st, func(e Expr) (Expr, bool) {
				got[e]++
				return e, true
			})
			if !reflect.DeepEqual(got, want) {
				for e, n := range want {
					if got[e] != n {
						t.Errorf("%s: Edit visits %s %d times, the reflective walk %d", Format(st), FormatExpr(e), got[e], n)
					}
				}
				t.Fatalf("%s: Edit visited %d expressions, the reflective walk reached %d", Format(st), len(got), len(want))
			}
		}
	})
}

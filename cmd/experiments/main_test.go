package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"testing"
)

// TestReportHoldsThePapersClaims runs every experiment once at scale 1 and
// checks what the paper asserts about each — values and orderings, never
// timings.
func TestReportHoldsThePapersClaims(t *testing.T) {
	var buf bytes.Buffer
	if err := run("", 1, &buf); err != nil {
		t.Fatal(err)
	}
	report := buf.String()
	// find returns the captures of every match of re in the report.
	find := func(re string) [][]string {
		var rows [][]string
		for _, m := range regexp.MustCompile(re).FindAllStringSubmatch(report, -1) {
			rows = append(rows, m[1:])
		}
		return rows
	}
	ints := func(re string) [][]int {
		var rows [][]int
		for _, m := range find(re) {
			var row []int
			for _, s := range m {
				n, err := strconv.Atoi(s)
				if err != nil {
					t.Fatalf("%s matched %q: %v", re, s, err)
				}
				row = append(row, n)
			}
			rows = append(rows, row)
		}
		return rows
	}
	want := func(claim string, got, exp any) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(exp) {
			t.Errorf("%s: report has %v, want %v\n%s", claim, got, exp, report)
		}
	}

	// Scenario A: the buggy aggregate cancels to 0; the fix found in the
	// debugger and exported computes 31.2 on the server.
	want("SA buggy result", find(`buggy result on server: (\S+)`), [][]string{{"0"}})
	want("SA exported fix", find(`after export, server computes: (\S+)`), [][]string{{"31.2"}})
	// Scenario B: the loader skipped the last file until its bound was fixed.
	want("SB buggy loader (rows, sum)", ints(`buggy loader: (\d+) rows, sum (\d+)`), [][]int{{5, 15}})
	want("SB fixed loader (rows, sum)", ints(`fixed loader: +(\d+) rows, sum (\d+)`), [][]int{{6, 115}})

	// T1: IDEs dominate text editors, the premise for meeting developers there.
	want("T1 (IDE share, text-editor share)", find(`IDE share (\S+)% vs text-editor share (\S+)%`), [][]string{{"77.7", "14.5"}})

	// E7: shipping the answer moves fewer bytes than shipping the column.
	inDB := ints(`(\d+) +in-DB UDF +\S+ +(\d+)`)
	pull := ints(`(\d+) +client pull\+compute +\S+ +(\d+)`)
	if len(inDB) != 2 || len(pull) != 2 {
		t.Fatalf("E7: %d in-DB and %d client-pull rows, want 2 each\n%s", len(inDB), len(pull), report)
	}
	for i := range inDB {
		if inDB[i][0] != pull[i][0] || inDB[i][1] >= pull[i][1] {
			t.Errorf("E7 at %d rows: in-DB moved %d bytes, client pull %d", inDB[i][0], inDB[i][1], pull[i][1])
		}
	}
	// E1: the compressed payload is smaller than the raw one at every size.
	raw := ints(`(\d+) +false +(\d+) +\S+ *\n\d+ +true +(\d+) +\S+ +\S+ smaller`)
	if len(raw) != 3 {
		t.Fatalf("E1: %d raw/compressed row pairs, want 3\n%s", len(raw), report)
	}
	for _, r := range raw {
		if r[2] >= r[1] {
			t.Errorf("E1 at %d rows: compressed %d bytes, raw %d", r[0], r[2], r[1])
		}
	}
}

func TestUnknownExperimentIsAnError(t *testing.T) {
	var buf bytes.Buffer
	if err := run("E9", 1, &buf); err == nil {
		t.Fatalf("run(\"E9\") succeeded and wrote %q", buf.String())
	}
	if err := run("sb", 1, &buf); err != nil {
		t.Fatalf("ids match case-insensitively: %v", err)
	}
}

package resolver

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"text/tabwriter"

	"github.com/extended-dns-errors/edelab/internal/ede"
)

var classNames = [...]string{ClassOK: "ok", ClassAdvisory: "advisory", ClassInsecure: "insecure",
	ClassDegraded: "degraded", ClassBogus: "bogus", ClassLame: "lame"}

// renderConditionTable renders Tables 3 and 4 as testdata/conditions.golden
// holds them: a header naming AllProfiles, then a line per condition with its
// name, its class and, per profile column, the codes reported for it alone
// ("-" for none).
func renderConditionTable(name func(Condition) string, class func(Condition) Class, codes func(c Condition, col int) []ede.Code) []byte {
	var buf bytes.Buffer
	w := tabwriter.NewWriter(&buf, 0, 0, 2, ' ', 0)
	fmt.Fprint(w, "condition\tclass")
	for _, p := range AllProfiles() {
		fmt.Fprintf(w, "\t%s", p.Name)
	}
	fmt.Fprintln(w)
	for c := ConditionOK; c < numConditions; c++ {
		fmt.Fprintf(w, "%s\t%s", name(c), classNames[class(c)])
		for col := range AllProfiles() {
			set := []string{"-"}
			if cs := slices.Sorted(slices.Values(codes(c, col))); len(cs) > 0 {
				set = set[:0]
				for _, code := range cs {
					set = append(set, fmt.Sprint(int(code)))
				}
			}
			fmt.Fprintf(w, "\t%s", strings.Join(set, ","))
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return buf.Bytes()
}

// TestConditionTableComplete holds conditionTable to
// testdata/conditions.golden, which the seven per-profile maps the table
// replaced rendered: the table's own rows, and what String, ClassOf and each
// profile's Report make of them, render byte for byte the same. A condition
// without a row, a name given twice, or a profile reading another column
// than its place in AllProfiles fails too, and a Profile built outside the
// constructors reports nothing.
func TestConditionTableComplete(t *testing.T) {
	want, err := os.ReadFile("testdata/conditions.golden")
	if err != nil {
		t.Fatal(err)
	}
	profiles := AllProfiles()
	for i, p := range profiles {
		if p.col != i+1 {
			t.Errorf("%s reads column %d of conditionTable, but is column %d of AllProfiles", p.Name, p.col, i+1)
		}
	}
	named := map[string]Condition{}
	all := make([]Condition, 0, numConditions)
	for c := ConditionOK; c < numConditions; c++ {
		all = append(all, c)
		name := conditionTable[c].name
		if name == "" {
			t.Errorf("condition %d has no row", int(c))
		} else if prev, ok := named[name]; ok {
			t.Errorf("conditions %d and %d are both named %q", int(prev), int(c), name)
		}
		named[name] = c
	}

	for _, r := range []struct {
		via string
		got []byte
	}{
		{"the table", renderConditionTable(
			func(c Condition) string { return conditionTable[c].name },
			func(c Condition) Class { return conditionTable[c].class },
			func(c Condition, col int) []ede.Code { return conditionTable[c].codes[col] })},
		{"String, ClassOf and Report", renderConditionTable(Condition.String, ClassOf,
			func(c Condition, col int) []ede.Code {
				var codes []ede.Code
				for _, o := range profiles[col].Report([]Condition{c}, nil) {
					codes = append(codes, ede.Code(o.InfoCode))
				}
				return codes
			})},
	} {
		if bytes.Equal(r.got, want) {
			continue
		}
		gotLines, wantLines := strings.Split(string(r.got), "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gotLines), len(wantLines)) {
			if i >= len(gotLines) || i >= len(wantLines) || gotLines[i] != wantLines[i] {
				t.Errorf("%s renders differently from the golden at line %d:\n got: %q\nwant: %q",
					r.via, i+1, lineAt(gotLines, i), lineAt(wantLines, i))
				break
			}
		}
	}

	if got := (&Profile{Name: "hand-built", ExtraText: true}).Report(all, nil); len(got) != 0 {
		t.Errorf("a Profile built outside the constructors reports %v, want nothing", got)
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end of file)"
}

package edelab

import (
	"go/ast"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// registrars are the telemetry.Registry methods that create a metric family.
var registrars = map[string]bool{
	"Counter": true, "CounterFunc": true, "Gauge": true, "GaugeFunc": true, "Histogram": true,
}

// familiesUnread is every metric family no reader names, each with why it
// stays. Empty: a family nothing reads is deleted, or a test that drives it
// reads it by name.
var familiesUnread = map[string]string{}

// familyToken matches a metric name, histogram suffixes included.
var familyToken = regexp.MustCompile(`edelab_[a-z0-9_]+`)

// TestMetricFamiliesRead fails when a family a non-test file registers
// (reg.Counter("edelab_…", …) and its siblings) is named by no reader and
// is not in familiesUnread, and when an allow-list entry is read after all
// or names no family. The readers are every _test.go file but this one, the
// .scn scenarios, the CI workflow, and the nested bench/ module. A family
// only its registration names is a number no one looks at.
func TestMetricFamiliesRead(t *testing.T) {
	registered := map[string]token.Position{}
	eachSourceFile(t, func(path string, fset *token.FileSet, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !registrars[sel.Sel.Name] {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(name, "edelab_") {
					if _, seen := registered[name]; !seen {
						registered[name] = fset.Position(lit.Pos())
					}
				}
			}
			return true
		})
	})
	if len(registered) == 0 {
		t.Fatal("found no metric registrations; the walk is broken")
	}

	read := map[string]bool{}
	scan := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, tok := range familyToken.FindAllString(string(b), -1) {
			read[tok] = true
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				read[strings.TrimSuffix(tok, suffix)] = true
			}
		}
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir():
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
		case path == "families_test.go":
		case strings.HasSuffix(path, "_test.go"),
			strings.HasSuffix(path, ".scn") && strings.HasPrefix(filepath.ToSlash(path), "scenarios/"),
			strings.HasSuffix(path, ".go") && strings.HasPrefix(filepath.ToSlash(path), "bench/"):
			scan(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	scan(filepath.Join(".github", "workflows", "ci.yml"))

	names := make([]string, 0, len(registered))
	for name := range registered {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch reason := familiesUnread[name]; {
		case !read[name] && reason == "":
			t.Errorf("%s: metric family %s is read by no test, scenario, CI step or bench/ file; delete it, read it by name in the test that drives it, or add it to familiesUnread with the reason",
				registered[name], name)
		case read[name] && reason != "":
			t.Errorf("familiesUnread entry %q is read after all; delete the entry", name)
		}
	}
	for name := range familiesUnread {
		if _, ok := registered[name]; !ok {
			t.Errorf("familiesUnread entry %q names no registered family; delete it", name)
		}
	}
	t.Logf("%d metric families registered", len(registered))
}

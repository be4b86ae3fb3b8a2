package scenario

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// vocabularyAllowed is every spec word no committed scenario uses, with the
// reason it stays. It is empty: a word only a parser test writes is a word
// to delete, with the field or driver code behind it.
var vocabularyAllowed = map[string]string{}

// TestScenarioVocabularyUsed fails when the .scn language holds a word that
// no file under scenarios/ uses: every "key: k=v" clause (as "key k") and
// every action verb must appear in some committed scenario, or be in
// vocabularyAllowed with its reason.
func TestScenarioVocabularyUsed(t *testing.T) {
	used := map[string]bool{}
	err := filepath.WalkDir("../../scenarios", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".scn" {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if _, err := Parse(string(src)); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		for _, line := range strings.Split(string(src), "\n") {
			line = strings.TrimSpace(line)
			key, val, ok := strings.Cut(line, ":")
			if !ok || strings.HasPrefix(line, "#") {
				continue
			}
			fields := strings.Fields(val)
			if key == "action" && len(fields) > 0 {
				used[fields[0]] = true
				continue
			}
			for _, f := range fields {
				if k, _, ok := strings.Cut(f, "="); ok {
					used[key+" "+k] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var words []string
	for key, clauses := range kvSpecs(&Scenario{}) {
		for k := range clauses {
			words = append(words, key+" "+k)
		}
	}
	for verb := range actionVerbs {
		words = append(words, verb)
	}
	sort.Strings(words)
	known := map[string]bool{}
	for _, w := range words {
		known[w] = true
		switch reason := vocabularyAllowed[w]; {
		case !used[w] && reason == "":
			t.Errorf("%q is in the .scn language but in no scenario under scenarios/; delete it, use it in a scenario, or add it to vocabularyAllowed with the reason", w)
		case used[w] && reason != "":
			t.Errorf("vocabularyAllowed entry %q is used by a scenario; delete the entry", w)
		}
	}
	for w := range vocabularyAllowed {
		if !known[w] {
			t.Errorf("vocabularyAllowed entry %q names no word of the language; delete it", w)
		}
	}
}

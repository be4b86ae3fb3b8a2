package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes: every report exits 0 with its own first or last line, and
// a command line that cannot be honoured exits 2 (an unknown case label
// printed nothing and exited 0; -table 5 printed Table 4).
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		line string // a line of stdout
		err  string // part of stderr
	}{
		{[]string{"-table", "5"}, 2, "", "-table 5: the paper's tables here are 2, 3 and 4"},
		{[]string{"-zones", "no-such-case"}, 2, "", `unknown case "no-such-case"`},
		{[]string{"-verbose"}, 2, "", "flag provided but not defined"},
		{[]string{"-table", "2"}, 0, "1. Control subdomain", ""},
		{[]string{"-table", "3"}, 0, "valid                      The correctly configured control domain", ""},
		{[]string{"-zones", "valid"}, 0, "$TTL 300", ""},
		{[]string{"-zones", "v4-private-10"}, 0, "; v4-private-10: no zone (invalid-glue case, configured at the parent)", ""},
		{[]string{"-diff"}, 0, "441/441 cells match the paper's Table 4", "resolving 63 cases"},
		{nil, 0, "Specificity (cases with at least one EDE, per system):", "resolving 63 cases"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d; stderr %q", tc.args, code, tc.code, stderr.String())
		}
		if tc.line != "" && !strings.Contains("\n"+stdout.String(), "\n"+tc.line+"\n") {
			t.Errorf("%v: stdout has no line %q:\n%s", tc.args, tc.line, stdout.String())
		}
		if tc.line == "" && stdout.Len() != 0 {
			t.Errorf("%v: stdout should be empty, got %q", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.err) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, stderr.String(), tc.err)
		}
	}
}

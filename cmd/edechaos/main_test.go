package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the test binary as edechaos itself when it is started with
// an edechaos command line (go test starts it with -test.* flags only), so a
// test can run the command in a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "suite" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestExitCodes: a passing scenario exits 0, a violated hypothesis 1, and a
// command line or spec that cannot be run 2; each prints its own first line.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		out  string // a line of stdout
		err  string // part of stderr
	}{
		{nil, 2, "", "usage:"},
		{[]string{"replay"}, 2, "", `unknown subcommand "replay"`},
		{[]string{"run"}, 2, "", "usage:"},
		{[]string{"run", "-seed", "x", "../../scenarios/table4-fault-free.scn"}, 2, "", "invalid value"},
		{[]string{"run", "../../scenarios/table4-fault-free.scn", "-seed", "7"}, 2, "", "usage:"},
		{[]string{"run", "no-such.scn"}, 2, "", "no-such.scn"},
		{[]string{"suite", t.TempDir()}, 2, "", "no *.scn files in "},
		{[]string{"run", "-h"}, 0, "", "-seed"},
		{[]string{"run", "../../scenarios/table4-fault-free.scn"}, 0, "effective seed: 20230515", ""},
		{[]string{"run", "-seed", "7", "../../scenarios/table4-fault-free.scn"}, 0, "effective seed: 7", ""},
		{[]string{"run", "../../scenarios/negative/broken-hypothesis.scn"}, 1, "verdict: FAIL (0/2 checks passed)", ""},
		{[]string{"suite", "../../scenarios/negative"}, 1, "    violated: baseline: expect cell valid cloudflare rcode=NXDOMAIN", ""},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d; stderr %q", tc.args, code, tc.code, stderr.String())
		}
		if tc.out != "" && !hasLine(stdout.String(), tc.out) {
			t.Errorf("%v: stdout has no line %q:\n%s", tc.args, tc.out, stdout.String())
		}
		if tc.out == "" && stdout.Len() != 0 {
			t.Errorf("%v: stdout should be empty, got %q", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.err) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, stderr.String(), tc.err)
		}
	}
}

// TestSuiteTable: the library passes at a second seed, -seed 7 (the default
// seed's run is TestSuiteIdenticalAcrossProcesses), one verdict row per
// scenario under the table header.
func TestSuiteTable(t *testing.T) {
	t.Parallel()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"suite", "-seed", "7", "../../scenarios"}, &stdout, &stderr); code != 0 {
		t.Fatalf("suite exited %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !hasLine(out, "SCENARIO                             DRIVER       VERDICT CHECKS") {
		t.Errorf("no table header:\n%s", out)
	}
	if !strings.Contains(out, "\ntable4-fault-free ") || strings.Contains(out, " FAIL ") {
		t.Errorf("suite table lacks table4-fault-free or has a FAIL:\n%s", out)
	}
}

// TestSuiteIdenticalAcrossProcesses: `edechaos suite -v` passes and prints
// the same report, every expect and probe line included, from two
// processes, one limited to one core and one given four
// (TestLibraryDeterministic compares two runs inside one process).
func TestSuiteIdenticalAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scenario library twice, in two child processes")
	}
	t.Parallel()
	var reports [2]bytes.Buffer
	var cmds [2]*exec.Cmd
	for i, procs := range []string{"1", "4"} {
		cmds[i] = exec.Command(os.Args[0], "suite", "-v", "../../scenarios")
		cmds[i].Env = append(os.Environ(), "GOMAXPROCS="+procs)
		cmds[i].Stdout, cmds[i].Stderr = &reports[i], &reports[i]
		if err := cmds[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("edechaos suite -v (child %d): %v\n%s", i, err, reports[i].String())
		}
	}
	if a, b := reports[0].String(), reports[1].String(); a != b {
		al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
		for i := 0; i < min(len(al), len(bl)); i++ {
			if al[i] != bl[i] {
				t.Fatalf("suite -v reports differ at line %d:\nGOMAXPROCS=1: %s\nGOMAXPROCS=4: %s", i+1, al[i], bl[i])
			}
		}
		t.Fatalf("suite -v reports differ in length: %d and %d lines", len(al), len(bl))
	}
}

func hasLine(out, line string) bool {
	for _, l := range strings.Split(out, "\n") {
		if l == line {
			return true
		}
	}
	return false
}

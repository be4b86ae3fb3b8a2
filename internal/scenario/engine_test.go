package scenario

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

const testSeed = 20230515

// TestLibraryDeterministic runs every committed library scenario twice from
// the same seed and requires byte-identical verdict reports. Under -race this
// also shakes out unsynchronized state inside the drivers.
func TestLibraryDeterministic(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.scn")
	if err != nil || len(files) == 0 {
		t.Fatalf("glob scenarios: %v (%d files)", err, len(files))
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			sc, err := ParseFile(path)
			if err != nil {
				t.Fatalf("ParseFile: %v", err)
			}
			first, err := Run(context.Background(), sc, testSeed)
			if err != nil {
				t.Fatalf("run 1: %v", err)
			}
			if first.Verdict != VerdictPass {
				t.Fatalf("library scenario did not pass:\n%s", first.Report())
			}
			if first.Seed != testSeed {
				t.Errorf("result seed %d, want %d", first.Seed, testSeed)
			}
			if !strings.Contains(first.Report(), "effective seed: 20230515") {
				t.Errorf("report does not embed the effective seed:\n%s", first.Report())
			}
			second, err := Run(context.Background(), sc, testSeed)
			if err != nil {
				t.Fatalf("run 2: %v", err)
			}
			if first.Report() != second.Report() {
				t.Errorf("reports differ between identical runs\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
					first.Report(), second.Report())
			}
		})
	}
}

// TestNegativeFixtureFails pins the committed failing hypothesis: it must
// FAIL and name every violated check.
func TestNegativeFixtureFails(t *testing.T) {
	sc, err := ParseFile("../../scenarios/negative/broken-hypothesis.scn")
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	res, err := Run(context.Background(), sc, testSeed)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Verdict != VerdictFail {
		t.Fatalf("verdict %s, want FAIL:\n%s", res.Verdict, res.Report())
	}
	failed := res.FailedChecks()
	if len(failed) == 0 {
		t.Fatal("FAIL verdict with no failed checks reported")
	}
	var sawProbe, sawExpect bool
	for _, f := range failed {
		if strings.Contains(f, "probe metric edelab_resolver_queries_total") {
			sawProbe = true
		}
		if strings.Contains(f, "expect cell valid cloudflare") {
			sawExpect = true
		}
	}
	if !sawProbe || !sawExpect {
		t.Errorf("failed checks do not name the violated probe and cell: %q", failed)
	}
	report := res.Report()
	for _, f := range failed {
		_, spec, ok := strings.Cut(f, ": ")
		if !ok || !strings.Contains(report, "FAIL "+spec) {
			t.Errorf("report does not mark %q as FAIL:\n%s", f, report)
		}
	}
}

// TestUnknownDriver ensures Run refuses a scenario whose driver the parser
// would also have refused (defence in depth for hand-built Scenario values).
func TestUnknownDriver(t *testing.T) {
	sc := &Scenario{Name: "x", Driver: "quantum",
		Phases: []Phase{{Name: "a", Expects: []Expect{{Kind: "table4"}}}}}
	if _, err := Run(context.Background(), sc, 1); err == nil {
		t.Fatal("Run accepted unknown driver")
	}
}

// runInline parses and runs a spec written in the test.
func runInline(t *testing.T, spec string, seed uint64) *RunResult {
	t.Helper()
	sc, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	res, err := Run(context.Background(), sc, seed)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// checkDetails lists what every check of the run measured, without the
// seed line a whole report carries.
func checkDetails(r *RunResult) string {
	var b strings.Builder
	for _, ph := range r.phases {
		for _, c := range ph.checks {
			b.WriteString(c.spec + " [" + c.detail + "]\n")
		}
	}
	return b.String()
}

// TestReplayIsAFunctionOfTheSeed runs a schedule whose outcome genuinely
// depends on RNG draws (50% loss, too few attempts to guarantee recovery):
// the same seed must replay the same fault history to the byte, and a
// different seed must replay a different one.
func TestReplayIsAFunctionOfTheSeed(t *testing.T) {
	const harsh = `scenario: harsh-loss
driver: matrix
transport: retries=2

phase: harsh
  fault: all loss=0.5
  expect: table4
  probe: metric edelab_netsim_events_total{event=lost} min=1
  probe: metric edelab_resolver_queries_total min=1
`
	a, b := runInline(t, harsh, testSeed), runInline(t, harsh, testSeed)
	if a.Report() != b.Report() {
		t.Fatalf("two runs with the same seed produced different reports\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.Report(), b.Report())
	}
	if a.Verdict != VerdictFail {
		t.Errorf("50%% loss with two attempts left Table 4 intact — the schedule no longer depends on its draws:\n%s", a.Report())
	}
	if c := runInline(t, harsh, testSeed+1); checkDetails(c) == checkDetails(a) {
		t.Fatalf("a different seed replayed the identical fault history:\n%s", checkDetails(c))
	}
}

// TestRetryPolicyRescuesTable4 shows what the transport policy is for:
// under 20% loss the default single-shot transport loses cells to timeout
// collapse, while six attempts hold all 441.
func TestRetryPolicyRescuesTable4(t *testing.T) {
	const lossy = `scenario: lossy
driver: matrix
%s
phase: lossy
  fault: all loss=0.2
  expect: table4
`
	singleShot := runInline(t, fmt.Sprintf(lossy, ""), testSeed)
	if singleShot.Verdict != VerdictFail {
		t.Errorf("single-shot transport survived 20%% loss — the demonstration is vacuous:\n%s", singleShot.Report())
	}
	withPolicy := runInline(t, fmt.Sprintf(lossy, "transport: retries=6 backoff=10ms\n"), testSeed)
	if withPolicy.Verdict != VerdictPass {
		t.Errorf("retry policy lost cells under 20%% loss:\n%s", withPolicy.Report())
	}
	t.Logf("single-shot: %s; six attempts: %s", singleShot.phases[0].checks[0].detail, withPolicy.phases[0].checks[0].detail)
}

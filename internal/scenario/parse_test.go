package scenario

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// minimal returns a valid scenario source to mutate per test case.
func minimal() string {
	return strings.Join([]string{
		"scenario: demo",
		"driver: matrix",
		"",
		"phase: baseline",
		"  expect: table4",
		"",
	}, "\n")
}

func TestParseMinimal(t *testing.T) {
	sc, err := Parse(minimal())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if sc.Name != "demo" || sc.Driver != "matrix" {
		t.Fatalf("got name=%q driver=%q", sc.Name, sc.Driver)
	}
	if len(sc.Phases) != 1 || sc.Phases[0].Name != "baseline" {
		t.Fatalf("phases = %+v", sc.Phases)
	}
	if len(sc.Phases[0].Expects) != 1 || sc.Phases[0].Expects[0].Kind != "table4" {
		t.Fatalf("expects = %+v", sc.Phases[0].Expects)
	}
}

func TestParseFull(t *testing.T) {
	src := strings.Join([]string{
		"# comment",
		"scenario: full-demo",
		"description: every top-level knob",
		"driver: frontend",
		"cases: valid, unsigned",
		"systems: cloudflare, bind",
		"transport: timeout=250ms retries=2 backoff=5ms",
		"frontend: max-inflight=4 stale-window=600s error-ttl=5s query-timeout=1s",
		"governor: max=16 min=2 step=4 observe-every=25",
		"population: total=300",
		"",
		"phase: load",
		"  fault: all loss=0.5",
		"  action: fill n=8",
		"  expect: responses n=3 rcode=SERVFAIL ede=23",
		"  probe: metric edelab_frontend_inflight{queue=main} min=1 max=4",
	}, "\n") + "\n"
	sc, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if sc.Transport.Timeout != 250*time.Millisecond || sc.Transport.Retries != 2 {
		t.Errorf("transport = %+v", sc.Transport)
	}
	if sc.Frontend.MaxInflight != 4 || sc.Frontend.StaleWindow != 600*time.Second {
		t.Errorf("frontend = %+v", sc.Frontend)
	}
	if sc.Governor.Step != 4 || sc.Governor.ObserveEvery != 25 {
		t.Errorf("governor = %+v", sc.Governor)
	}
	if sc.Population.Total != 300 {
		t.Errorf("population = %+v", sc.Population)
	}
	ph := sc.Phases[0]
	if len(ph.Faults) != 1 || ph.Faults[0].Endpoint != "all" {
		t.Errorf("faults = %+v", ph.Faults)
	}
	if len(ph.Probes) != 1 || ph.Probes[0].Metric != "edelab_frontend_inflight" ||
		len(ph.Probes[0].Labels) != 1 {
		t.Errorf("probes = %+v", ph.Probes)
	}
	e := ph.Expects[0]
	if e.Kind != "responses" || e.Count != 3 || e.RCode != "SERVFAIL" ||
		len(e.EDE) != 1 || e.EDE[0] != 23 {
		t.Errorf("expect = %+v", e)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name     string
		src      string
		sentinel error
		line     int // 0 = don't check
	}{
		{"no colon", "scenario demo\n", ErrSyntax, 1},
		{"indent before phase", "scenario: demo\ndriver: matrix\n  expect: table4\n", ErrSyntax, 3},
		{"top-level key after phase", minimal() + "driver: matrix\n", ErrSyntax, 6},
		{"unknown top key", "scenario: demo\nflavor: mint\n", ErrUnknownKey, 2},
		{"unknown transport key", "scenario: demo\ntransport: warp=9\n", ErrUnknownKey, 2},
		{"duplicate top key", "scenario: demo\nscenario: demo\n", ErrDuplicateKey, 2},
		{"duplicate phase", "scenario: demo\ndriver: matrix\nphase: a\n  expect: table4\nphase: a\n  expect: table4\n", ErrDuplicateKey, 5},
		{"duplicate fault endpoint", "scenario: demo\ndriver: matrix\nphase: a\n  fault: root loss=1\n  fault: root lat=5ms\n  expect: table4\n", ErrDuplicateKey, 5},
		{"bad name", "scenario: Demo!\n", ErrBadValue, 1},
		{"bad transport value", "scenario: demo\ntransport: retries=many\n", ErrBadValue, 2},
		{"bad expect count", strings.Replace(minimal(), "expect: table4", "expect: responses n=x rcode=NOERROR", 1), ErrBadValue, 5},
		{"probe without bounds", strings.Replace(minimal(), "expect: table4", "probe: metric edelab_x", 1), ErrBadValue, 5},
		{"unterminated labels", strings.Replace(minimal(), "expect: table4", "probe: metric edelab_x{a=b min=1", 1), ErrBadValue, 5},
		{"bad fault spec", "scenario: demo\ndriver: matrix\nphase: a\n  fault: root speed=ludicrous\n  expect: table4\n", ErrBadFaultSpec, 4},
		{"fault missing spec", "scenario: demo\ndriver: matrix\nphase: a\n  fault: root\n  expect: table4\n", ErrBadFaultSpec, 4},
		{"unknown expect kind", strings.Replace(minimal(), "expect: table4", "expect: vibes rcode=NOERROR", 1), ErrUnknownProbe, 5},
		{"unknown probe kind", strings.Replace(minimal(), "expect: table4", "probe: oracle edelab_x min=1", 1), ErrUnknownProbe, 5},
		{"unknown driver", "scenario: demo\ndriver: quantum\n", ErrUnknownDriver, 2},
		{"unknown action", strings.Replace(minimal(), "expect: table4", "action: explode\n  expect: table4", 1), ErrUnknownAction, 5},
		// A run passes only when every check does: there is no verdict rule.
		{"verdict rule", "scenario: demo\nverdict: flaky-retries=2\n", ErrUnknownKey, 2},
		{"transport budget", "scenario: demo\ntransport: budget=24\n", ErrUnknownKey, 2},
		{"governor water mark", "scenario: demo\ngovernor: high=0.2\n", ErrUnknownKey, 2},
		{"population slice", "scenario: demo\npopulation: total=300 start=10\n", ErrUnknownKey, 2},
		{"pressure verb", strings.Replace(minimal(), "expect: table4", "action: pressure attempts=10 failures=5\n  expect: table4", 1), ErrUnknownAction, 5},
		{"drain verb", strings.Replace(minimal(), "expect: table4", "action: drain r0\n  expect: table4", 1), ErrUnknownAction, 5},
		{"missing name", "driver: matrix\nphase: a\n  expect: table4\n", ErrIncomplete, 0},
		{"missing driver", "scenario: demo\nphase: a\n  expect: table4\n", ErrIncomplete, 0},
		{"no phases", "scenario: demo\ndriver: matrix\n", ErrIncomplete, 0},
		{"no hypothesis", "scenario: demo\ndriver: matrix\nphase: a\n  action: flush\n", ErrIncomplete, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse accepted %q", tc.src)
			}
			if sc != nil {
				t.Errorf("non-nil scenario alongside error %v", err)
			}
			if !errors.Is(err, tc.sentinel) {
				t.Errorf("error %v, want sentinel %v", err, tc.sentinel)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %T is not *ParseError", err)
			}
			if tc.line != 0 && pe.Line != tc.line {
				t.Errorf("error on line %d, want %d: %v", pe.Line, tc.line, err)
			}
		})
	}
}

func TestParseFileMissing(t *testing.T) {
	if _, err := ParseFile("testdata/does-not-exist.scn"); err == nil {
		t.Fatal("ParseFile accepted a missing file")
	}
}

package scenario

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// driver executes one topology family. The engine owns phase sequencing,
// the action loop, fault installation and hypothesis evaluation; the lab
// owns the testbed, the clock and the response log; a driver owns its
// infrastructure and the verbs no other driver has.
type driver interface {
	// setup builds the topology for one run on l, which the driver keeps.
	setup(l *lab) error
	// act executes one action, recording what it observes. A verb the
	// driver does not have is a bare ErrUnknownAction.
	act(ctx context.Context, a Action, obs *observations) error
	close()
}

// observations is what one phase exposes to expect evaluation.
type observations struct {
	// cells is a Table 4 walk: the matrix driver's after a phase that reads
	// cells, the cluster driver's sweep.
	cells     *matrixObs
	responses []response
}

type matrixObs struct {
	cases   []string
	systems []string
	cells   map[[2]string]cell // (case, system)
}

// cell is one observed Table 4 cell beside the paper's ground truth.
type cell struct {
	rcode          string
	edes, expected []uint16 // sorted
}

// response is one client answer observed by a query action.
type response struct {
	label string
	rcode string
	edes  []uint16 // sorted
}

func newDriver(name string) (driver, error) {
	switch name {
	case "matrix":
		return &matrixDriver{}, nil
	case "frontend":
		return &frontendDriver{}, nil
	case "streamclient":
		return &streamDriver{}, nil
	case "campaign":
		return &campaignDriver{}, nil
	case "cluster":
		return &clusterDriver{}, nil
	}
	return nil, fmt.Errorf("scenario: %w: %q", ErrUnknownDriver, name)
}

// Verdict classifies one run.
type Verdict string

const (
	VerdictPass Verdict = "PASS"
	VerdictFail Verdict = "FAIL"
)

// check is one evaluated expect or probe.
type check struct {
	pass   bool
	spec   string // the expect/probe in canonical spec form
	detail string // measured value / mismatch summary, deterministic
}

// phaseResult is one executed phase.
type phaseResult struct {
	name   string
	checks []check
	err    error // phase aborted (action failure)
}

// RunResult is one completed scenario run with its verdict.
type RunResult struct {
	Scenario *Scenario
	// Seed is the effective seed the run (and its report) derives from.
	Seed    uint64
	Verdict Verdict

	phases []phaseResult

	failed, total int
}

// Failed and Total report the check tally of the run.
func (r *RunResult) Failed() int { return r.failed }
func (r *RunResult) Total() int  { return r.total }

// Run executes every phase of the scenario once, deterministically from
// seed: the result, report included, is a pure function of (scenario, seed).
// The verdict is PASS when every check passes and FAIL otherwise.
func Run(ctx context.Context, sc *Scenario, seed uint64) (*RunResult, error) {
	drv, err := newDriver(sc.Driver)
	if err != nil {
		return nil, err
	}
	l := &lab{sc: sc, seed: seed, reg: telemetry.NewRegistry()}
	if err := drv.setup(l); err != nil {
		return nil, fmt.Errorf("scenario %s: setup: %w", sc.Name, err)
	}
	defer drv.close()

	res := &RunResult{Scenario: sc, Seed: seed}
	for i := range sc.Phases {
		ph := &sc.Phases[i]
		pr := phaseResult{name: ph.Name}
		if err := l.installFaults(ph); err != nil {
			return nil, fmt.Errorf("scenario %s: phase %s: %w", sc.Name, ph.Name, err)
		}
		obs, err := runPhase(ctx, drv, l, ph)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: phase %s: %w", sc.Name, ph.Name, err)
		}
		for _, e := range ph.Expects {
			pr.checks = append(pr.checks, evalExpect(e, obs))
		}
		for _, p := range ph.Probes {
			pr.checks = append(pr.checks, evalProbe(p, l.reg))
		}
		for _, c := range pr.checks {
			res.total++
			if !c.pass {
				res.failed++
			}
		}
		res.phases = append(res.phases, pr)
	}
	res.Verdict = VerdictPass
	if res.failed > 0 {
		res.Verdict = VerdictFail
	}
	return res, nil
}

// runPhase executes the phase's actions in order and returns what the
// steady-state hypothesis is checked against.
func runPhase(ctx context.Context, drv driver, l *lab, ph *Phase) (*observations, error) {
	obs := &observations{}
	for _, a := range ph.Actions {
		err := drv.act(ctx, a, obs)
		if err == ErrUnknownAction {
			err = fmt.Errorf("%w: %q for driver %s", ErrUnknownAction, a.Verb, l.sc.Driver)
		}
		if err != nil {
			return nil, fmt.Errorf("action %q: %w", a, err)
		}
	}
	if l.afterActions != nil {
		if err := l.afterActions(ctx, ph, obs); err != nil {
			return nil, err
		}
	}
	return obs, nil
}

// installFaults composes the phase's fault rules into one FaultPlan: the
// "all" rule is the plan default, every other endpoint becomes an override.
// A phase with no fault lines clears all faults.
func (l *lab) installFaults(ph *Phase) error {
	if len(ph.Faults) == 0 {
		l.net.SetFaults(nil)
		return nil
	}
	var def netsim.FaultProfile
	for _, f := range ph.Faults {
		if f.Endpoint == "all" {
			fp, err := netsim.ParseFaultProfile(f.Spec)
			if err != nil {
				return err
			}
			def = fp
		}
	}
	plan := netsim.NewFaultPlan(l.seed, def)
	for _, f := range ph.Faults {
		if f.Endpoint == "all" {
			continue
		}
		addr, ok := l.addrs[f.Endpoint]
		if !ok {
			return fmt.Errorf("unknown fault endpoint %q", f.Endpoint)
		}
		fp, err := netsim.ParseFaultProfile(f.Spec)
		if err != nil {
			return err
		}
		plan.Override(addr, fp)
	}
	l.net.SetFaults(plan)
	return nil
}

func evalExpect(e Expect, obs *observations) check {
	c := check{spec: "expect " + e.String()}
	m := obs.cells
	if m == nil && e.Kind != "responses" {
		c.detail = "phase recorded no matrix cells"
		return c
	}
	switch e.Kind {
	case "table4":
		var mismatches []string
		for _, cs := range m.cases {
			for _, sys := range m.systems {
				if cel := m.cells[[2]string{cs, sys}]; !slices.Equal(cel.edes, cel.expected) {
					mismatches = append(mismatches, fmt.Sprintf("%s/%s: got=%s want=%s",
						cs, sys, codesString(cel.edes), codesString(cel.expected)))
				}
			}
		}
		sort.Strings(mismatches)
		if len(mismatches) == 0 {
			c.pass = true
			c.detail = fmt.Sprintf("%d cells match ground truth", len(m.cases)*len(m.systems))
		} else {
			c.detail = fmt.Sprintf("%d/%d cells diverge; first: %s",
				len(mismatches), len(m.cases)*len(m.systems), mismatches[0])
		}
	case "cell":
		// Spec tokens cannot contain spaces: "bind" names "BIND 9.19.9".
		system := e.System
		if p, ok := resolver.ProfileByName(system); ok {
			system = p.Name
		}
		matched, failedCell, got := 0, "", ""
		for _, cs := range m.cases {
			if e.Case != "*" && e.Case != cs {
				continue
			}
			for _, sys := range m.systems {
				if system != "*" && system != sys {
					continue
				}
				matched++
				cel := m.cells[[2]string{cs, sys}]
				ok, observed := cellMatches(e, cel.rcode, cel.edes)
				if !ok && failedCell == "" {
					failedCell, got = cs+"/"+sys, observed
				}
			}
		}
		switch {
		case matched == 0:
			c.detail = "no cell matches " + e.Case + "/" + e.System
		case failedCell != "":
			c.detail = fmt.Sprintf("cell %s got %s", failedCell, got)
		default:
			c.pass = true
			c.detail = fmt.Sprintf("%d cells match", matched)
		}
	case "responses":
		matched, firstMiss := 0, ""
		for _, r := range obs.responses {
			ok, observed := cellMatches(e, r.rcode, r.edes)
			if ok {
				matched++
			} else if firstMiss == "" {
				firstMiss = fmt.Sprintf("%s got %s", r.label, observed)
			}
		}
		switch {
		case e.Count >= 0:
			if matched == e.Count {
				c.pass = true
				c.detail = fmt.Sprintf("%d/%d responses match", matched, len(obs.responses))
			} else {
				c.detail = fmt.Sprintf("%d responses match, want %d", matched, e.Count)
				if firstMiss != "" {
					c.detail += "; first miss: " + firstMiss
				}
			}
		case len(obs.responses) == 0:
			c.detail = "phase recorded no responses"
		case matched == len(obs.responses):
			c.pass = true
			c.detail = fmt.Sprintf("all %d responses match", matched)
		default:
			c.detail = fmt.Sprintf("%d/%d responses match; first miss: %s",
				matched, len(obs.responses), firstMiss)
		}
	}
	return c
}

// cellMatches checks one observed (rcode, ede set) against the expect's
// clauses, returning the observed rendering for failure messages.
func cellMatches(e Expect, rcode string, edes []uint16) (bool, string) {
	observed := "rcode=" + rcode + " ede=" + codesString(edes)
	if e.RCode != "" && e.RCode != rcode {
		return false, observed
	}
	if e.HasEDE && !slices.Equal(edes, e.EDE) {
		return false, observed
	}
	return true, observed
}

func evalProbe(p Probe, reg *telemetry.Registry) check {
	c := check{spec: "probe " + p.String()}
	v, ok := reg.Value(p.Metric, p.Labels...)
	if !ok {
		c.detail = "metric not registered"
		return c
	}
	switch {
	case p.HasMin && v < p.Min:
		c.detail = fmt.Sprintf("value %s below min %s", formatFloat(v), formatFloat(p.Min))
	case p.HasMax && v > p.Max:
		c.detail = fmt.Sprintf("value %s above max %s", formatFloat(v), formatFloat(p.Max))
	default:
		c.pass = true
		c.detail = "value " + formatFloat(v)
	}
	return c
}

func codesString(codes []uint16) string {
	if len(codes) == 0 {
		return "none"
	}
	parts := make([]string, len(codes))
	for i, c := range codes {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return strings.Join(parts, ",")
}

// Report renders the run as a canonical byte-stable document. Two runs of
// the same scenario from the same seed produce identical bytes; the
// effective seed is embedded so any failure is reproducible from the report
// alone.
func (r *RunResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: %s\n", r.Scenario.Name)
	fmt.Fprintf(&b, "driver: %s\n", r.Scenario.Driver)
	fmt.Fprintf(&b, "effective seed: %d\n", r.Seed)
	for _, ph := range r.phases {
		fmt.Fprintf(&b, "\nphase: %s\n", ph.name)
		for _, c := range ph.checks {
			status := "FAIL"
			if c.pass {
				status = "PASS"
			}
			fmt.Fprintf(&b, "  %s %s [%s]\n", status, c.spec, c.detail)
		}
	}
	fmt.Fprintf(&b, "\nverdict: %s (%d/%d checks passed)\n",
		r.Verdict, r.total-r.failed, r.total)
	return b.String()
}

// FailedChecks lists the specs of every failed check — the violated probes
// a FAIL verdict names.
func (r *RunResult) FailedChecks() []string {
	var out []string
	for _, ph := range r.phases {
		for _, c := range ph.checks {
			if !c.pass {
				out = append(out, ph.name+": "+c.spec)
			}
		}
	}
	return out
}

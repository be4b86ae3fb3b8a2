// Package scenario is the declarative chaos-scenario engine: experiments as
// spec files instead of Go code. A scenario names a driver (the topology it
// runs on — the Table 4 testbed, the caching frontend, a real stream
// listener, or a population-slice campaign), a fault schedule of
// netsim.ParseFaultProfile spec strings per endpoint and phase, a
// steady-state hypothesis (expected RCODE/EDE cells plus probes against the
// telemetry registry). The engine executes phases in order, evaluates every
// probe, and renders a canonical byte-stable verdict report — two runs from
// the same seed must produce identical bytes. A run passes only when every
// check does.
//
// The spec format is a small hand-rolled line format (no external
// dependencies): "key: value" lines at the top level, "phase: name" blocks
// with indented fault/action/expect/probe lines. Parse and String round-trip:
// String renders the canonical form, and re-parsing it yields a deeply equal
// Scenario — the model has no write-only fields.
package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// Scenario is one declarative chaos experiment.
type Scenario struct {
	// Name identifies the scenario ([a-z0-9-]+).
	Name string
	// Description is the one-line human summary.
	Description string
	// Driver selects the topology/executor: "matrix" (Table 4 testbed),
	// "frontend" (caching serving layer over the testbed), "streamclient"
	// (a real TCP listener driven by transport.StreamClient), or
	// "campaign" (a population-slice scan feeding the AIMD governor).
	Driver string
	// Cases restricts the matrix/frontend drivers to a subset of testbed
	// case labels; empty means every case (matrix) or none preloaded.
	Cases []string
	// Systems restricts the vendor profiles exercised; empty means all
	// seven (matrix) or Cloudflare (the other drivers).
	Systems []string
	// Transport is the resolver transport policy for the run.
	Transport TransportSpec
	// Frontend tunes the frontend driver (and each cluster replica).
	Frontend FrontendSpec
	// Cluster tunes the cluster driver's replica set.
	Cluster ClusterSpec
	// Governor tunes the campaign driver's AIMD governor.
	Governor GovernorSpec
	// Population sizes the campaign driver's population.
	Population PopulationSpec
	// Phases execute in order.
	Phases []Phase
}

// Phase is one step of the experiment: faults installed, actions executed,
// then the steady-state hypothesis evaluated.
type Phase struct {
	Name    string
	Faults  []FaultRule
	Actions []Action
	Expects []Expect
	Probes  []Probe
}

// FaultRule applies a netsim fault spec to one endpoint for the phase.
// Endpoint is a symbolic name the driver resolves: "all" (the plan default),
// "root", "com", "parent", or a testbed case label.
type FaultRule struct {
	Endpoint string
	Spec     string
}

// Action is one driver-interpreted step, e.g. "query valid n=3" or
// "rollover valid". The verb is validated at parse time; arguments are
// validated by the driver.
type Action struct {
	Verb string
	Args []string
}

// String renders the action in spec form.
func (a Action) String() string {
	if len(a.Args) == 0 {
		return a.Verb
	}
	return a.Verb + " " + strings.Join(a.Args, " ")
}

// Expect is one cell of the steady-state hypothesis, checked against the
// phase's observations.
//
// Kinds:
//
//	table4               — every selected (case, system) cell matches the
//	                       paper's ground-truth matrix
//	cell CASE SYSTEM ... — one cell (or "*" wildcards) matches the given
//	                       rcode/ede clauses
//	responses ...        — the phase's client responses match; n=K requires
//	                       exactly K matching responses, omitted means all
type Expect struct {
	Kind   string // "table4", "cell", "responses"
	Case   string // cell: case label or "*"
	System string // cell: system name or "*"
	Count  int    // responses: required match count; -1 means "all"
	RCode  string // "" = unchecked
	// EDE is the expected exact EDE code set; meaningful only when HasEDE.
	// HasEDE with nil EDE means "no EDE at all" (spelled ede=none).
	EDE    []uint16
	HasEDE bool
}

// String renders the expect clause in spec form.
func (e Expect) String() string {
	switch e.Kind {
	case "table4":
		return "table4"
	case "cell":
		s := "cell " + e.Case + " " + e.System
		return s + e.clauses()
	case "responses":
		s := "responses"
		if e.Count >= 0 {
			s += " n=" + strconv.Itoa(e.Count)
		}
		return s + e.clauses()
	}
	return e.Kind
}

func (e Expect) clauses() string {
	var s string
	if e.RCode != "" {
		s += " rcode=" + e.RCode
	}
	if e.HasEDE {
		if len(e.EDE) == 0 {
			s += " ede=none"
		} else {
			parts := make([]string, len(e.EDE))
			for i, c := range e.EDE {
				parts[i] = strconv.Itoa(int(c))
			}
			s += " ede=" + strings.Join(parts, ",")
		}
	}
	return s
}

// Probe checks one value in the run's telemetry registry against bounds.
type Probe struct {
	Metric string
	Labels []telemetry.Label // sorted by key
	Min    float64
	Max    float64
	HasMin bool
	HasMax bool
}

// String renders the probe in spec form.
func (p Probe) String() string {
	s := "metric " + p.Metric
	if len(p.Labels) > 0 {
		parts := make([]string, len(p.Labels))
		for i, l := range p.Labels {
			parts[i] = l.Key + "=" + l.Value
		}
		s += "{" + strings.Join(parts, ",") + "}"
	}
	if p.HasMin {
		s += " min=" + formatFloat(p.Min)
	}
	if p.HasMax {
		s += " max=" + formatFloat(p.Max)
	}
	return s
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// TransportSpec is the resolver transport policy in spec form
// ("timeout=2s retries=6 backoff=10ms"). The zero value keeps the
// resolver's legacy single-shot behaviour.
type TransportSpec struct {
	Timeout time.Duration
	Retries int
	Backoff time.Duration
}

// IsZero reports whether the spec requests the legacy transport.
func (t TransportSpec) IsZero() bool { return t == TransportSpec{} }

// String renders the spec canonically, omitting zero fields.
func (t TransportSpec) String() string {
	var parts []string
	if t.Timeout > 0 {
		parts = append(parts, "timeout="+t.Timeout.String())
	}
	if t.Retries > 0 {
		parts = append(parts, "retries="+strconv.Itoa(t.Retries))
	}
	if t.Backoff > 0 {
		parts = append(parts, "backoff="+t.Backoff.String())
	}
	return strings.Join(parts, " ")
}

// FrontendSpec tunes the frontend driver ("max-inflight=4 stale-window=1h
// error-ttl=30s query-timeout=2s").
type FrontendSpec struct {
	MaxInflight  int
	StaleWindow  time.Duration
	ErrorTTL     time.Duration
	QueryTimeout time.Duration
}

// IsZero reports whether every field is defaulted.
func (f FrontendSpec) IsZero() bool { return f == FrontendSpec{} }

// String renders the spec canonically, omitting zero fields.
func (f FrontendSpec) String() string {
	var parts []string
	if f.MaxInflight > 0 {
		parts = append(parts, "max-inflight="+strconv.Itoa(f.MaxInflight))
	}
	if f.StaleWindow > 0 {
		parts = append(parts, "stale-window="+f.StaleWindow.String())
	}
	if f.ErrorTTL > 0 {
		parts = append(parts, "error-ttl="+f.ErrorTTL.String())
	}
	if f.QueryTimeout > 0 {
		parts = append(parts, "query-timeout="+f.QueryTimeout.String())
	}
	return strings.Join(parts, " ")
}

// ClusterSpec tunes the cluster driver ("replicas=3"): how many frontend
// replicas sit behind the consistent-hash router.
type ClusterSpec struct {
	Replicas int
}

// IsZero reports whether every field is defaulted.
func (c ClusterSpec) IsZero() bool { return c == ClusterSpec{} }

// String renders the spec canonically, empty when defaulted.
func (c ClusterSpec) String() string {
	if c.Replicas <= 0 {
		return ""
	}
	return "replicas=" + strconv.Itoa(c.Replicas)
}

// GovernorSpec tunes the campaign driver's AIMD governor
// ("max=32 min=1 step=2 observe-every=50").
type GovernorSpec struct {
	Max, Min     int
	Step         int
	ObserveEvery int
}

// IsZero reports whether every field is defaulted.
func (g GovernorSpec) IsZero() bool { return g == GovernorSpec{} }

// String renders the spec canonically, omitting zero fields.
func (g GovernorSpec) String() string {
	var parts []string
	if g.Max > 0 {
		parts = append(parts, "max="+strconv.Itoa(g.Max))
	}
	if g.Min > 0 {
		parts = append(parts, "min="+strconv.Itoa(g.Min))
	}
	if g.Step > 0 {
		parts = append(parts, "step="+strconv.Itoa(g.Step))
	}
	if g.ObserveEvery > 0 {
		parts = append(parts, "observe-every="+strconv.Itoa(g.ObserveEvery))
	}
	return strings.Join(parts, " ")
}

// PopulationSpec sizes the campaign driver's population ("total=400").
type PopulationSpec struct {
	Total int
}

// String renders the scenario in canonical spec form. The output re-parses
// to a deeply equal Scenario.
func (s *Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: %s\n", s.Name)
	if s.Description != "" {
		fmt.Fprintf(&b, "description: %s\n", s.Description)
	}
	fmt.Fprintf(&b, "driver: %s\n", s.Driver)
	if len(s.Cases) > 0 {
		fmt.Fprintf(&b, "cases: %s\n", strings.Join(s.Cases, ", "))
	}
	if len(s.Systems) > 0 {
		fmt.Fprintf(&b, "systems: %s\n", strings.Join(s.Systems, ", "))
	}
	if !s.Transport.IsZero() {
		fmt.Fprintf(&b, "transport: %s\n", s.Transport)
	}
	if !s.Frontend.IsZero() {
		fmt.Fprintf(&b, "frontend: %s\n", s.Frontend)
	}
	if !s.Cluster.IsZero() {
		fmt.Fprintf(&b, "cluster: %s\n", s.Cluster)
	}
	if !s.Governor.IsZero() {
		fmt.Fprintf(&b, "governor: %s\n", s.Governor)
	}
	if s.Population.Total > 0 {
		fmt.Fprintf(&b, "population: total=%d\n", s.Population.Total)
	}
	for i := range s.Phases {
		ph := &s.Phases[i]
		b.WriteString("\n")
		fmt.Fprintf(&b, "phase: %s\n", ph.Name)
		for _, f := range ph.Faults {
			fmt.Fprintf(&b, "  fault: %s %s\n", f.Endpoint, f.Spec)
		}
		for _, a := range ph.Actions {
			fmt.Fprintf(&b, "  action: %s\n", a)
		}
		for _, e := range ph.Expects {
			fmt.Fprintf(&b, "  expect: %s\n", e)
		}
		for _, p := range ph.Probes {
			fmt.Fprintf(&b, "  probe: %s\n", p)
		}
	}
	return b.String()
}

// sortLabels orders probe labels by key (then value) so the canonical form
// is unique.
func sortLabels(labels []telemetry.Label) {
	sort.Slice(labels, func(i, j int) bool {
		if labels[i].Key != labels[j].Key {
			return labels[i].Key < labels[j].Key
		}
		return labels[i].Value < labels[j].Value
	})
}

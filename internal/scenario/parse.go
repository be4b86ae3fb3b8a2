package scenario

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// Typed parse failures. Every error Parse returns wraps exactly one of
// these (inside a *ParseError carrying the line number), so callers — and
// the fuzzer — can classify failures with errors.Is. Parse never half
// applies: on any error the returned scenario is nil.
var (
	ErrSyntax        = errors.New("syntax error")
	ErrUnknownKey    = errors.New("unknown key")
	ErrDuplicateKey  = errors.New("duplicate key")
	ErrBadValue      = errors.New("bad value")
	ErrBadFaultSpec  = errors.New("bad fault spec")
	ErrUnknownProbe  = errors.New("unknown probe kind")
	ErrUnknownDriver = errors.New("unknown driver")
	ErrUnknownAction = errors.New("unknown action")
	ErrIncomplete    = errors.New("incomplete scenario")
)

// ParseError is a spec failure pinned to its line.
type ParseError struct {
	Line   int
	Err    error // one of the sentinel errors above
	Detail string
}

func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("scenario: line %d: %v: %s", e.Line, e.Err, e.Detail)
	}
	return fmt.Sprintf("scenario: %v: %s", e.Err, e.Detail)
}

func (e *ParseError) Unwrap() error { return e.Err }

func perr(line int, sentinel error, format string, args ...any) error {
	return &ParseError{Line: line, Err: sentinel, Detail: fmt.Sprintf(format, args...)}
}

// Drivers lists the valid driver names.
var Drivers = []string{"matrix", "frontend", "streamclient", "campaign", "cluster"}

// actionVerbs is the closed set of action verbs across all drivers; drivers
// reject verbs they do not implement at run time, but an unknown verb is a
// spec error caught at parse time.
var actionVerbs = map[string]bool{
	// matrix driver (testbed topology mutations)
	"resign":   true, // resign LABEL window=valid|past|future
	"rollover": true, // rollover LABEL — fresh keys, parent DS left stale
	"restore":  true, // restore LABEL — original keys and window back
	"poison":   true, // poison LABEL — unsolicited glue injected at the parent
	"unpoison": true, // unpoison — restore the clean parent handler
	"nxns":     true, // nxns LABEL fanout=N — glueless delegation fan-out
	"flush":    true, // flush — drop every resolver cache layer
	// frontend / streamclient drivers
	"query":           true, // query LABEL n=K — sequential client queries
	"advance":         true, // advance DUR — move the serving clock
	"block-backend":   true, // gate the upstream (recursions park)
	"release-backend": true, // open the gate
	"fill":            true, // fill n=K — park K recursions against the gate
	"kill-conns":      true, // close every live server-side stream conn
	// campaign driver
	"scan": true, // scan n=K — resolve the next K population names
	// cluster driver (replica lifecycle + Table 4 sweeps through the router)
	"sweep":  true, // sweep — walk the selected cases through the router
	"kill":   true, // kill ID — hard-fail a replica
	"rejoin": true, // rejoin ID — bring a killed replica back
}

// ParseFile reads and parses one scenario spec file.
func ParseFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(string(data))
}

// Parse parses a scenario spec. See the package comment for the format. On
// error the returned scenario is always nil — a spec is applied completely
// or not at all.
func Parse(src string) (*Scenario, error) {
	sc := &Scenario{}
	seenTop := map[string]bool{}
	seenPhase := map[string]bool{}
	var cur *Phase

	lines := strings.Split(src, "\n")
	for i, raw := range lines {
		ln := i + 1
		line := strings.TrimRight(raw, " \t\r")
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		indented := line[0] == ' ' || line[0] == '\t'

		key, val, ok := strings.Cut(trimmed, ":")
		if !ok {
			return nil, perr(ln, ErrSyntax, "expected \"key: value\", got %q", trimmed)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)

		if indented {
			if cur == nil {
				return nil, perr(ln, ErrSyntax, "indented %q line before any phase", key)
			}
			if err := parsePhaseLine(cur, ln, key, val); err != nil {
				return nil, err
			}
			continue
		}

		if key == "phase" {
			if val == "" || !validSlug(val) {
				return nil, perr(ln, ErrBadValue, "phase name %q must match [a-z0-9-]+", val)
			}
			if seenPhase[val] {
				return nil, perr(ln, ErrDuplicateKey, "phase %q declared twice", val)
			}
			seenPhase[val] = true
			sc.Phases = append(sc.Phases, Phase{Name: val})
			cur = &sc.Phases[len(sc.Phases)-1]
			continue
		}
		if cur != nil {
			return nil, perr(ln, ErrSyntax, "top-level key %q after the first phase", key)
		}
		if seenTop[key] {
			return nil, perr(ln, ErrDuplicateKey, "top-level key %q declared twice", key)
		}
		seenTop[key] = true
		if err := parseTopLine(sc, ln, key, val); err != nil {
			return nil, err
		}
	}

	if sc.Name == "" {
		return nil, perr(0, ErrIncomplete, "missing scenario: name")
	}
	if sc.Driver == "" {
		return nil, perr(0, ErrIncomplete, "missing driver:")
	}
	if len(sc.Phases) == 0 {
		return nil, perr(0, ErrIncomplete, "no phases declared")
	}
	hypotheses := 0
	for i := range sc.Phases {
		hypotheses += len(sc.Phases[i].Expects) + len(sc.Phases[i].Probes)
	}
	if hypotheses == 0 {
		return nil, perr(0, ErrIncomplete, "no steady-state hypothesis: at least one expect or probe required")
	}
	return sc, nil
}

func parseTopLine(sc *Scenario, ln int, key, val string) error {
	switch key {
	case "scenario":
		if !validSlug(val) {
			return perr(ln, ErrBadValue, "scenario name %q must match [a-z0-9-]+", val)
		}
		sc.Name = val
	case "description":
		sc.Description = val
	case "driver":
		for _, d := range Drivers {
			if val == d {
				sc.Driver = val
				return nil
			}
		}
		return perr(ln, ErrUnknownDriver, "%q (valid: %s)", val, strings.Join(Drivers, ", "))
	case "cases":
		sc.Cases = splitList(val)
		if len(sc.Cases) == 0 {
			return perr(ln, ErrBadValue, "cases: needs at least one label")
		}
	case "systems":
		sc.Systems = splitList(val)
		if len(sc.Systems) == 0 {
			return perr(ln, ErrBadValue, "systems: needs at least one name")
		}
	default:
		fields, ok := kvSpecs(sc)[key]
		if !ok {
			return perr(ln, ErrUnknownKey, "top-level key %q", key)
		}
		return parseKVSpec(ln, key, val, fields)
	}
	return nil
}

// kvSpecs is every "key: k=v k=v" top-level line and the clauses it takes,
// each clause bound to the field of sc it sets.
func kvSpecs(sc *Scenario) map[string]map[string]func(string) error {
	return map[string]map[string]func(string) error{
		"transport": {
			"timeout": durField(&sc.Transport.Timeout),
			"retries": intField(&sc.Transport.Retries),
			"backoff": durField(&sc.Transport.Backoff),
		},
		"frontend": {
			"max-inflight":  intField(&sc.Frontend.MaxInflight),
			"stale-window":  durField(&sc.Frontend.StaleWindow),
			"error-ttl":     durField(&sc.Frontend.ErrorTTL),
			"query-timeout": durField(&sc.Frontend.QueryTimeout),
		},
		"cluster": {
			"replicas": intField(&sc.Cluster.Replicas),
		},
		"governor": {
			"max":           intField(&sc.Governor.Max),
			"min":           intField(&sc.Governor.Min),
			"step":          intField(&sc.Governor.Step),
			"observe-every": intField(&sc.Governor.ObserveEvery),
		},
		"population": {
			"total": intField(&sc.Population.Total),
		},
	}
}

func parsePhaseLine(ph *Phase, ln int, key, val string) error {
	switch key {
	case "fault":
		endpoint, spec, ok := strings.Cut(val, " ")
		if !ok || strings.TrimSpace(spec) == "" {
			return perr(ln, ErrBadFaultSpec, "fault needs \"ENDPOINT SPEC\", got %q", val)
		}
		spec = strings.TrimSpace(spec)
		if fp, err := netsim.ParseFaultProfile(spec); err != nil {
			return perr(ln, ErrBadFaultSpec, "%v", err)
		} else if fp.IsZero() {
			return perr(ln, ErrBadFaultSpec, "fault spec %q injects nothing", spec)
		}
		for _, f := range ph.Faults {
			if f.Endpoint == endpoint {
				return perr(ln, ErrDuplicateKey, "endpoint %q already has a fault in phase %q", endpoint, ph.Name)
			}
		}
		ph.Faults = append(ph.Faults, FaultRule{Endpoint: endpoint, Spec: spec})
	case "action":
		fields := strings.Fields(val)
		if len(fields) == 0 {
			return perr(ln, ErrBadValue, "empty action")
		}
		if !actionVerbs[fields[0]] {
			return perr(ln, ErrUnknownAction, "%q", fields[0])
		}
		ph.Actions = append(ph.Actions, Action{Verb: fields[0], Args: fields[1:]})
	case "expect":
		e, err := parseExpect(ln, val)
		if err != nil {
			return err
		}
		ph.Expects = append(ph.Expects, e)
	case "probe":
		p, err := parseProbe(ln, val)
		if err != nil {
			return err
		}
		ph.Probes = append(ph.Probes, p)
	default:
		return perr(ln, ErrUnknownKey, "phase key %q", key)
	}
	return nil
}

func parseExpect(ln int, val string) (Expect, error) {
	fields := strings.Fields(val)
	if len(fields) == 0 {
		return Expect{}, perr(ln, ErrBadValue, "empty expect")
	}
	e := Expect{Kind: fields[0], Count: -1}
	rest := fields[1:]
	switch e.Kind {
	case "table4":
		if len(rest) != 0 {
			return Expect{}, perr(ln, ErrBadValue, "table4 takes no arguments")
		}
		return e, nil
	case "cell":
		if len(rest) < 2 {
			return Expect{}, perr(ln, ErrBadValue, "cell needs CASE and SYSTEM")
		}
		e.Case, e.System = rest[0], rest[1]
		rest = rest[2:]
	case "responses":
	default:
		return Expect{}, perr(ln, ErrUnknownProbe, "expect kind %q (valid: table4, cell, responses)", e.Kind)
	}
	for _, tok := range rest {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return Expect{}, perr(ln, ErrBadValue, "expect clause %q is not key=value", tok)
		}
		switch k {
		case "n":
			if e.Kind != "responses" {
				return Expect{}, perr(ln, ErrBadValue, "n= is only valid on responses")
			}
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return Expect{}, perr(ln, ErrBadValue, "n=%q is not a count", v)
			}
			e.Count = n
		case "rcode":
			e.RCode = v
		case "ede":
			e.HasEDE = true
			if v == "none" {
				break
			}
			for _, c := range strings.Split(v, ",") {
				n, err := strconv.Atoi(c)
				if err != nil || n < 0 || n > 65535 {
					return Expect{}, perr(ln, ErrBadValue, "ede code %q", c)
				}
				e.EDE = append(e.EDE, uint16(n))
			}
		default:
			return Expect{}, perr(ln, ErrBadValue, "unknown expect clause %q", k)
		}
	}
	if e.Kind == "cell" && e.RCode == "" && !e.HasEDE {
		return Expect{}, perr(ln, ErrBadValue, "cell expect needs rcode= or ede=")
	}
	if e.Kind == "responses" && e.RCode == "" && !e.HasEDE {
		return Expect{}, perr(ln, ErrBadValue, "responses expect needs rcode= or ede=")
	}
	return e, nil
}

func parseProbe(ln int, val string) (Probe, error) {
	fields := strings.Fields(val)
	if len(fields) == 0 {
		return Probe{}, perr(ln, ErrBadValue, "empty probe")
	}
	if fields[0] != "metric" {
		return Probe{}, perr(ln, ErrUnknownProbe, "probe kind %q (valid: metric)", fields[0])
	}
	if len(fields) < 2 {
		return Probe{}, perr(ln, ErrBadValue, "metric probe needs a metric name")
	}
	var p Probe
	name := fields[1]
	if i := strings.IndexByte(name, '{'); i >= 0 {
		if !strings.HasSuffix(name, "}") {
			return Probe{}, perr(ln, ErrBadValue, "unterminated label set in %q", name)
		}
		labelSrc := name[i+1 : len(name)-1]
		name = name[:i]
		if labelSrc != "" {
			for _, tok := range strings.Split(labelSrc, ",") {
				k, v, ok := strings.Cut(tok, "=")
				if !ok || k == "" {
					return Probe{}, perr(ln, ErrBadValue, "label %q is not key=value", tok)
				}
				p.Labels = append(p.Labels, telemetry.L(k, v))
			}
			sortLabels(p.Labels)
		}
	}
	if name == "" {
		return Probe{}, perr(ln, ErrBadValue, "metric probe needs a metric name")
	}
	p.Metric = name
	for _, tok := range fields[2:] {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return Probe{}, perr(ln, ErrBadValue, "probe clause %q is not key=value", tok)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return Probe{}, perr(ln, ErrBadValue, "probe bound %s=%q is not a number", k, v)
		}
		switch k {
		case "min":
			p.Min, p.HasMin = f, true
		case "max":
			p.Max, p.HasMax = f, true
		default:
			return Probe{}, perr(ln, ErrBadValue, "unknown probe clause %q", k)
		}
	}
	if !p.HasMin && !p.HasMax {
		return Probe{}, perr(ln, ErrBadValue, "metric probe needs min= and/or max=")
	}
	return p, nil
}

// parseKVSpec parses a space-separated "k=v k=v" spec with a fixed key set.
func parseKVSpec(ln int, name, val string, fields map[string]func(string) error) error {
	seen := map[string]bool{}
	for _, tok := range strings.Fields(val) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return perr(ln, ErrBadValue, "%s clause %q is not key=value", name, tok)
		}
		set, known := fields[k]
		if !known {
			return perr(ln, ErrUnknownKey, "%s key %q", name, k)
		}
		if seen[k] {
			return perr(ln, ErrDuplicateKey, "%s key %q repeated", name, k)
		}
		seen[k] = true
		if err := set(v); err != nil {
			return perr(ln, ErrBadValue, "%s %s=%q: %v", name, k, v, err)
		}
	}
	return nil
}

func intField(dst *int) func(string) error {
	return func(v string) error {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return fmt.Errorf("not a non-negative integer")
		}
		*dst = n
		return nil
	}
}

func durField(dst *time.Duration) func(string) error {
	return func(v string) error {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return fmt.Errorf("not a non-negative duration")
		}
		*dst = d
		return nil
	}
}

func splitList(val string) []string {
	var out []string
	for _, part := range strings.Split(val, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

func validSlug(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !(r == '-' || (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')) {
			return false
		}
	}
	return true
}

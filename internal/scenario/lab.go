package scenario

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/testbed"
)

// lab is what every driver builds its topology on and the engine reads the
// run from: the faultable network, the Table 4 testbed with the scenario's
// case selection, the virtual clock, the query ID sequence, and the helpers
// that turn an answer into a logged observation. A driver embeds the lab it
// is handed in setup and adds only its own infrastructure and verbs.
type lab struct {
	sc   *Scenario
	seed uint64
	// reg receives every metric the run exposes; probes are evaluated
	// against it.
	reg *telemetry.Registry

	// net is the simulated network faults are installed on; addrs resolves a
	// symbolic fault endpoint ("root", a case label) to its address. A
	// population network names none, so only "all" rules apply there.
	net   *netsim.Network
	addrs map[string]netip.Addr

	tb      *testbed.Testbed
	byLabel map[string]testbed.Case
	cases   []testbed.Case // the `cases:` selection; all 63 when empty

	// offset is the virtual clock's displacement from the frozen testbed
	// instant; atomic because parked fill goroutines read the clock.
	offset atomic.Int64
	qid    uint16

	// afterActions, when a driver sets it, runs once the phase's actions
	// have: the matrix driver's Table 4 walk.
	afterActions func(ctx context.Context, ph *Phase, obs *observations) error
}

// close releases nothing: a driver that starts goroutines or opens sockets
// declares its own.
func (l *lab) close() {}

// useTestbed builds the Table 4 testbed — the one place a scenario does —
// makes its network the faultable one, and resolves the case selection.
func (l *lab) useTestbed() error {
	tb, err := testbed.Build()
	if err != nil {
		return err
	}
	l.tb = tb
	l.useNetwork(tb.Net, tb.Addrs)
	l.byLabel = make(map[string]testbed.Case, len(tb.Cases))
	for _, c := range tb.Cases {
		l.byLabel[c.Label] = c
	}
	l.cases = tb.Cases
	if len(l.sc.Cases) > 0 {
		l.cases = nil
		for _, label := range l.sc.Cases {
			c, err := l.caseFor(label)
			if err != nil {
				return err
			}
			l.cases = append(l.cases, c)
		}
	}
	return nil
}

func (l *lab) useNetwork(net *netsim.Network, addrs map[string]netip.Addr) {
	l.net, l.addrs = net, addrs
	net.RegisterMetrics(l.reg)
}

func (l *lab) caseFor(label string) (testbed.Case, error) {
	c, ok := l.byLabel[label]
	if !ok {
		return c, fmt.Errorf("unknown case %q", label)
	}
	return c, nil
}

// selectProfiles resolves spec system tokens against the vendor profiles,
// preserving canonical profile order. Empty means all seven.
func selectProfiles(tokens []string) ([]*resolver.Profile, error) {
	all := resolver.AllProfiles()
	if len(tokens) == 0 {
		return all, nil
	}
	selected := make(map[string]bool)
	for _, tok := range tokens {
		if tok == "*" {
			return all, nil
		}
		if p, ok := resolver.ProfileByName(tok); ok {
			selected[p.Name] = true
		}
	}
	var out []*resolver.Profile
	for _, p := range all {
		if selected[p.Name] {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("systems %v match no vendor profile", tokens)
	}
	return out, nil
}

// profile is the one vendor profile a single-resolver topology runs: the
// first the scenario's `systems:` selects, Cloudflare when it names none.
func (l *lab) profile() (*resolver.Profile, error) {
	tokens := l.sc.Systems
	if len(tokens) == 0 {
		tokens = []string{"cloudflare"}
	}
	profs, err := selectProfiles(tokens)
	if err != nil {
		return nil, err
	}
	return profs[0], nil
}

// noSleep replaces the backoff clock: pacing is policy under test, not wall
// time.
func noSleep(context.Context, time.Duration) {}

// transport converts the scenario's transport line into a resolver policy,
// nil for the zero spec (legacy single-shot behaviour).
func (l *lab) transport() *resolver.TransportConfig {
	ts := l.sc.Transport
	if ts.IsZero() {
		return nil
	}
	return &resolver.TransportConfig{
		Timeout: ts.Timeout,
		Retries: ts.Retries,
		Backoff: ts.Backoff,
		Sleep:   noSleep,
	}
}

// newResolver is a testbed resolver under the scenario's transport policy,
// validating on the lab's clock.
func (l *lab) newResolver(p *resolver.Profile) *resolver.Resolver {
	r := l.tb.NewResolver(p)
	r.Transport = l.transport()
	r.Now = l.now
	return r
}

// frontendConfig is the scenario's `frontend:` line, serving on the lab's
// clock.
func (l *lab) frontendConfig() frontend.Config {
	fs := l.sc.Frontend
	return frontend.Config{
		MaxInflight:  fs.MaxInflight,
		QueryTimeout: fs.QueryTimeout,
		StaleWindow:  fs.StaleWindow,
		ErrorTTL:     fs.ErrorTTL,
		Now:          l.now,
	}
}

// now is the shared virtual clock: serving time and validation time advance
// together via the advance verb. The DNSSEC windows are ±1.5 years wide, so
// advancing hours never flips validity.
func (l *lab) now() time.Time {
	return time.Unix(int64(testbed.Now), 0).Add(time.Duration(l.offset.Load()))
}

// advance is the `advance DUR` verb, for the drivers that offer it.
func (l *lab) advance(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("advance needs a duration")
	}
	dur, err := time.ParseDuration(args[0])
	if err != nil || dur <= 0 {
		return fmt.Errorf("bad duration %q", args[0])
	}
	l.offset.Add(int64(dur))
	return nil
}

func (l *lab) newQuery(name dnswire.Name) *dnswire.Message {
	l.qid++
	return dnswire.NewQuery(l.qid, name, dnswire.TypeA)
}

// countArg parses an "n=K" argument.
func countArg(arg string) (int, error) {
	ns, ok := strings.CutPrefix(arg, "n=")
	if !ok {
		return 0, fmt.Errorf("expected n=K, got %q", arg)
	}
	n, err := strconv.Atoi(ns)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("n %q is not a positive count", ns)
	}
	return n, nil
}

// queryArgs parses "LABEL [n=K]", defaulting to one query.
func queryArgs(args []string) (label string, n int, err error) {
	if len(args) < 1 || len(args) > 2 {
		return "", 0, fmt.Errorf("query needs LABEL [n=K]")
	}
	n = 1
	if len(args) == 2 {
		if n, err = countArg(args[1]); err != nil {
			return "", 0, err
		}
	}
	return args[0], n, nil
}

func sortedCodes(codes []uint16) []uint16 {
	out := append([]uint16(nil), codes...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// answer renders one client answer for the response log. A nil message is a
// transport failure: the client saw an error, not a DNS response.
func answer(label string, msg *dnswire.Message) response {
	if msg == nil {
		return response{label: label, rcode: "ERROR"}
	}
	return response{label: label, rcode: msg.RCode.String(), edes: sortedCodes(msg.EDECodes())}
}

func (o *observations) record(label string, msg *dnswire.Message) {
	o.responses = append(o.responses, answer(label, msg))
}

// walk puts the selected cases to ask once per profile, case by case and
// sequentially — which is what makes reports byte-stable — and records each
// answer beside the paper's ground truth for that cell.
func (l *lab) walk(profiles []*resolver.Profile, ask func(c testbed.Case, profile int) (*dnswire.Message, error)) (*matrixObs, error) {
	m := &matrixObs{cells: make(map[[2]string]cell)}
	for _, p := range profiles {
		m.systems = append(m.systems, p.Name)
	}
	for _, c := range l.cases {
		m.cases = append(m.cases, c.Label)
		for i, sys := range m.systems {
			msg, err := ask(c, i)
			if err != nil {
				return nil, fmt.Errorf("case %s: %w", c.Label, err)
			}
			m.cells[[2]string{c.Label, sys}] = cell{
				rcode:    msg.RCode.String(),
				edes:     sortedCodes(msg.EDECodes()),
				expected: sortedCodes(c.Expected[sys]),
			}
		}
	}
	return m, nil
}

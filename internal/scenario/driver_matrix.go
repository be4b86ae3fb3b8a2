package scenario

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/testbed"
	"github.com/extended-dns-errors/edelab/internal/zone"
)

// noSleep replaces the backoff clock: pacing is policy under test, not wall
// time.
func noSleep(context.Context, time.Duration) {}

// transportFor converts the spec into a resolver transport policy, nil for
// the zero spec (legacy single-shot behaviour).
func transportFor(ts TransportSpec) *resolver.TransportConfig {
	if ts.IsZero() {
		return nil
	}
	return &resolver.TransportConfig{
		Timeout:     ts.Timeout,
		Retries:     ts.Retries,
		RetryBudget: ts.Budget,
		Backoff:     ts.Backoff,
		Sleep:       noSleep,
	}
}

// attackerAddr hosts the poisoning scenario's rogue server: if a resolver
// ever believes injected glue, its queries land here and are counted.
var attackerAddr = netip.AddrFrom4([4]byte{198, 18, 250, 1})

// matrixDriver runs scenarios on the Table 4 testbed: 63 cases × up to 7
// vendor profiles, with actions that mutate zones, inject poison, add NXNS
// fan-out delegations, and walk the matrix.
type matrixDriver struct {
	tb        *testbed.Testbed
	sc        *Scenario
	seed      uint64
	reg       *telemetry.Registry
	profiles  []*resolver.Profile
	resolvers []*resolver.Resolver
	cases     []testbed.Case
	byLabel   map[string]testbed.Case

	saved map[string]savedKeys

	parentClean   netsim.Handler
	attackerHits  *telemetry.Counter
	poisonUptake  *telemetry.Counter
	poisonActive  bool
	pseudoQueries map[string]dnswire.Name // nxns labels -> query name
}

type savedKeys struct {
	opts zone.SignOptions
}

func (d *matrixDriver) setup(ctx context.Context, seed uint64, sc *Scenario, reg *telemetry.Registry) error {
	tb, err := testbed.Build()
	if err != nil {
		return err
	}
	d.tb, d.sc, d.seed, d.reg = tb, sc, seed, reg
	d.saved = make(map[string]savedKeys)
	d.pseudoQueries = make(map[string]dnswire.Name)

	d.byLabel = make(map[string]testbed.Case, len(tb.Cases))
	for _, c := range tb.Cases {
		d.byLabel[c.Label] = c
	}
	if len(sc.Cases) == 0 {
		d.cases = tb.Cases
	} else {
		for _, label := range sc.Cases {
			c, ok := d.byLabel[label]
			if !ok {
				return fmt.Errorf("unknown case %q", label)
			}
			d.cases = append(d.cases, c)
		}
	}

	d.profiles, err = selectProfiles(sc.Systems)
	if err != nil {
		return err
	}
	for _, p := range d.profiles {
		r := tb.NewResolver(p)
		r.Transport = transportFor(sc.Transport)
		d.resolvers = append(d.resolvers, r)
	}

	// One resolver per profile means per-resolver RegisterMetrics would
	// collide (registration is first-wins); publish aggregate views instead.
	tb.Net.RegisterMetrics(reg)
	reg.CounterFunc("edelab_resolver_queries_total",
		"Outgoing queries to authoritative servers, all profiles.",
		func() uint64 {
			var n uint64
			for _, r := range d.resolvers {
				n += r.QueryCount.Load()
			}
			return n
		})
	reg.CounterFunc("edelab_resolver_resolutions_total",
		"Client Resolve calls, all profiles.",
		func() uint64 {
			var n uint64
			for _, r := range d.resolvers {
				n += r.ResolutionCount.Load()
			}
			return n
		})
	transportEvent := func(event string, pick func(resolver.TransportStats) uint64) {
		reg.CounterFunc("edelab_resolver_transport_events_total",
			"Transport-level events summed over all profiles.",
			func() uint64 {
				var n uint64
				for _, r := range d.resolvers {
					n += pick(r.TransportStats())
				}
				return n
			}, telemetry.L("event", event))
	}
	transportEvent("retry", func(s resolver.TransportStats) uint64 { return s.Retries })
	transportEvent("timeout", func(s resolver.TransportStats) uint64 { return s.Timeouts })
	transportEvent("tcp_fallback", func(s resolver.TransportStats) uint64 { return s.TCPFallbacks })
	transportEvent("servfail", func(s resolver.TransportStats) uint64 { return s.Servfails })
	transportEvent("upstream_servfail", func(s resolver.TransportStats) uint64 { return s.UpstreamServfails })

	d.attackerHits = reg.Counter("edelab_scenario_attacker_queries_total",
		"Queries that reached the poisoning scenario's rogue server — any value above zero means injected glue was believed.")
	d.poisonUptake = reg.Counter("edelab_scenario_poison_uptake_total",
		"Query-action answers carrying the attacker's address — cache poisoning made it into client responses.")

	// The rogue endpoint is always present; nothing should ever query it.
	tb.Net.Register(attackerAddr, netsim.HandlerFunc(
		func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
			d.attackerHits.Inc()
			r := q.Reply()
			r.RCode = dnswire.RCodeRefused
			return r, nil
		}))
	return nil
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

func (d *matrixDriver) network() *netsim.Network { return d.tb.Net }

func (d *matrixDriver) endpoint(name string) (netip.Addr, bool) {
	addr, ok := d.tb.Addrs[name]
	return addr, ok
}

func (d *matrixDriver) close() {}

func (d *matrixDriver) runPhase(ctx context.Context, ph *Phase) (*observations, error) {
	obs := &observations{}
	for _, a := range ph.Actions {
		if err := d.runAction(ctx, a, obs); err != nil {
			return nil, fmt.Errorf("action %q: %w", a, err)
		}
	}
	if needsMatrix(ph) {
		obs.cells = d.walkMatrix(ctx)
	}
	return obs, nil
}

// needsMatrix reports whether the phase's hypothesis reads Table 4 cells.
func needsMatrix(ph *Phase) bool {
	for _, e := range ph.Expects {
		if e.Kind == "table4" || e.Kind == "cell" {
			return true
		}
	}
	return false
}

// walkMatrix replays the selected cases through every selected profile
// sequentially, which is what makes reports byte-stable.
func (d *matrixDriver) walkMatrix(ctx context.Context) *matrixObs {
	m := &matrixObs{
		edes:     make(map[string]map[string][]uint16),
		rcodes:   make(map[string]map[string]string),
		expected: make(map[string]map[string][]uint16),
	}
	for _, p := range d.profiles {
		m.systems = append(m.systems, p.Name)
	}
	for _, c := range d.cases {
		m.cases = append(m.cases, c.Label)
		m.edes[c.Label] = make(map[string][]uint16)
		m.rcodes[c.Label] = make(map[string]string)
		m.expected[c.Label] = make(map[string][]uint16)
		for i, p := range d.profiles {
			res := d.resolvers[i].Resolve(ctx, c.Query, dnswire.TypeA)
			m.edes[c.Label][p.Name] = sortedCodes(res.Codes())
			m.rcodes[c.Label][p.Name] = res.Msg.RCode.String()
			m.expected[c.Label][p.Name] = sortedCodes(c.Expected[p.Name])
		}
	}
	return m
}

func sortedCodes(codes []uint16) []uint16 {
	out := append([]uint16(nil), codes...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (d *matrixDriver) runAction(ctx context.Context, a Action, obs *observations) error {
	switch a.Verb {
	case "flush":
		for _, r := range d.resolvers {
			r.Cache.Flush()
		}
		return nil
	case "resign":
		if len(a.Args) != 2 {
			return fmt.Errorf("resign needs LABEL window=past|valid|future")
		}
		z, err := d.zoneFor(a.Args[0])
		if err != nil {
			return err
		}
		inc, exp, err := windowArg(a.Args[1])
		if err != nil {
			return err
		}
		d.saveKeys(a.Args[0], z)
		return z.ResignAllWithWindow(inc, exp)
	case "rollover":
		if len(a.Args) != 1 {
			return fmt.Errorf("rollover needs LABEL")
		}
		z, err := d.zoneFor(a.Args[0])
		if err != nil {
			return err
		}
		d.saveKeys(a.Args[0], z)
		// Fresh keys, parent DS left pointing at the retired KSK — the
		// mid-rollover hazard window.
		return z.Sign(zone.SignOptions{Inception: testbed.Inception, Expiration: testbed.Expiration})
	case "restore":
		if len(a.Args) != 1 {
			return fmt.Errorf("restore needs LABEL")
		}
		z, err := d.zoneFor(a.Args[0])
		if err != nil {
			return err
		}
		saved, ok := d.saved[a.Args[0]]
		if !ok {
			return fmt.Errorf("zone %q was never mutated", a.Args[0])
		}
		return z.Sign(saved.opts)
	case "poison":
		if len(a.Args) != 1 {
			return fmt.Errorf("poison needs a victim LABEL")
		}
		return d.poison(a.Args[0])
	case "unpoison":
		if d.parentClean == nil {
			return fmt.Errorf("nothing poisoned")
		}
		d.tb.Net.Register(d.tb.Addrs["parent"], d.parentClean)
		d.parentClean = nil
		d.poisonActive = false
		return nil
	case "nxns":
		return d.addNXNS(a.Args)
	case "query":
		return d.query(ctx, a.Args, obs)
	}
	return fmt.Errorf("%w: %q for driver matrix", ErrUnknownAction, a.Verb)
}

func (d *matrixDriver) zoneFor(label string) (*zone.Zone, error) {
	switch label {
	case "root":
		return d.tb.Root, nil
	case "com":
		return d.tb.Com, nil
	case "parent":
		return d.tb.Parent, nil
	}
	if z, ok := d.tb.ZoneFor(label); ok {
		return z, nil
	}
	return nil, fmt.Errorf("no zone for %q", label)
}

func windowArg(arg string) (uint32, uint32, error) {
	w, ok := strings.CutPrefix(arg, "window=")
	if !ok {
		return 0, 0, fmt.Errorf("expected window=..., got %q", arg)
	}
	switch w {
	case "valid":
		return testbed.Inception, testbed.Expiration, nil
	case "past":
		return testbed.PastInception, testbed.PastExpiration, nil
	case "future":
		return testbed.FutureInception, testbed.FutureExpiration, nil
	}
	return 0, 0, fmt.Errorf("unknown window %q", w)
}

// saveKeys records the zone's current keys and window once, before its first
// mutation, so restore can re-sign with the originals.
func (d *matrixDriver) saveKeys(label string, z *zone.Zone) {
	if _, ok := d.saved[label]; ok {
		return
	}
	opts := zone.SignOptions{Inception: z.Inception, Expiration: z.Expiration}
	if len(z.KSKs) > 0 {
		opts.KSK = z.KSKs[0]
	}
	if len(z.ZSKs) > 0 {
		opts.ZSK = z.ZSKs[0]
	}
	d.saved[label] = savedKeys{opts: opts}
}

// poison wraps the parent server with a man-in-the-middle that appends an
// unsolicited glue record — ns1.<victim> at the attacker's address — to
// every response about OTHER names. A resolver honouring bailiwick rules
// must never cache it, so resolving the victim still reaches the legitimate
// servers and the attacker's hit counter stays zero.
func (d *matrixDriver) poison(victim string) error {
	if _, ok := d.byLabel[victim]; !ok {
		return fmt.Errorf("unknown victim case %q", victim)
	}
	if d.poisonActive {
		return fmt.Errorf("already poisoned")
	}
	parentAddr := d.tb.Addrs["parent"]
	orig, ok := d.tb.Net.HandlerAt(parentAddr)
	if !ok {
		return fmt.Errorf("parent server not registered")
	}
	d.parentClean = orig
	d.poisonActive = true

	victimZone := testbed.ParentZone.Child(victim)
	rogueNS := victimZone.Child("ns1")
	d.tb.Net.Register(parentAddr, netsim.HandlerFunc(
		func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
			resp, err := orig.HandleDNS(ctx, q)
			if err != nil || resp == nil {
				return resp, err
			}
			if len(q.Question) == 1 && q.Question[0].Name.IsSubdomainOf(victimZone) {
				return resp, nil
			}
			out := *resp
			out.Additional = append(append([]dnswire.RR(nil), resp.Additional...), dnswire.RR{
				Name: rogueNS, Class: dnswire.ClassIN, TTL: 86400,
				Data: dnswire.A{Addr: attackerAddr},
			})
			return &out, nil
		}))
	return nil
}

// addNXNS delegates a fresh label to fanout glueless out-of-bailiwick NS
// hosts (nsN.<label>-sink.com, all NXDOMAIN at com), then re-signs the
// parent with its existing keys — the NXNS referral-amplification shape:
// one client query fans out into a sub-resolution per NS host.
func (d *matrixDriver) addNXNS(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("nxns needs LABEL fanout=N")
	}
	label := args[0]
	fs, ok := strings.CutPrefix(args[1], "fanout=")
	if !ok {
		return fmt.Errorf("expected fanout=N, got %q", args[1])
	}
	fanout, err := strconv.Atoi(fs)
	if err != nil || fanout < 1 {
		return fmt.Errorf("fanout %q is not a positive count", fs)
	}
	if _, exists := d.byLabel[label]; exists {
		return fmt.Errorf("label %q already a testbed case", label)
	}
	if _, exists := d.pseudoQueries[label]; exists {
		return fmt.Errorf("label %q already delegated", label)
	}
	child := testbed.ParentZone.Child(label)
	hosts := make(map[dnswire.Name][]netip.Addr, fanout)
	for i := 0; i < fanout; i++ {
		hosts[dnswire.MustName(fmt.Sprintf("ns%d.%s-sink.com", i, label))] = nil
	}
	d.tb.Parent.AddDelegation(child, hosts)
	d.saveKeys("parent", d.tb.Parent)
	if err := d.tb.Parent.Sign(d.saved["parent"].opts); err != nil {
		return err
	}
	d.pseudoQueries[label] = child
	return nil
}

// query resolves a case (or nxns pseudo-case) n times through the first
// selected profile's resolver, sequentially, recording each response.
func (d *matrixDriver) query(ctx context.Context, args []string, obs *observations) error {
	label, n, err := queryArgs(args)
	if err != nil {
		return err
	}
	qname, ok := d.pseudoQueries[label]
	if !ok {
		c, found := d.byLabel[label]
		if !found {
			return fmt.Errorf("unknown case %q", label)
		}
		qname = c.Query
	}
	r := d.resolvers[0]
	for i := 0; i < n; i++ {
		res := r.Resolve(ctx, qname, dnswire.TypeA)
		for _, rr := range res.Msg.Answer {
			if a, ok := rr.Data.(dnswire.A); ok && a.Addr == attackerAddr {
				d.poisonUptake.Inc()
			}
		}
		obs.responses = append(obs.responses, response{
			label: fmt.Sprintf("%s#%d", label, i+1),
			rcode: res.Msg.RCode.String(),
			edes:  sortedCodes(res.Codes()),
		})
	}
	return nil
}

// queryArgs parses "LABEL [n=K]", defaulting to one query.
func queryArgs(args []string) (string, int, error) {
	if len(args) < 1 || len(args) > 2 {
		return "", 0, fmt.Errorf("query needs LABEL [n=K]")
	}
	n := 1
	if len(args) == 2 {
		ns, ok := strings.CutPrefix(args[1], "n=")
		if !ok {
			return "", 0, fmt.Errorf("expected n=K, got %q", args[1])
		}
		v, err := strconv.Atoi(ns)
		if err != nil || v < 1 {
			return "", 0, fmt.Errorf("n %q is not a positive count", ns)
		}
		n = v
	}
	return args[0], n, nil
}

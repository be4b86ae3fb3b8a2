package scenario

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"strconv"
	"strings"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/testbed"
	"github.com/extended-dns-errors/edelab/internal/zone"
)

// attackerAddr hosts the poisoning scenario's rogue server: if a resolver
// ever believes injected glue, its queries land here and are counted.
var attackerAddr = netip.AddrFrom4([4]byte{198, 18, 250, 1})

// matrixDriver runs scenarios on the Table 4 testbed: 63 cases × up to 7
// vendor profiles, with actions that mutate zones, inject poison, add NXNS
// fan-out delegations, and walk the matrix.
type matrixDriver struct {
	*lab
	profiles  []*resolver.Profile
	resolvers []*resolver.Resolver

	saved map[string]zone.SignOptions // keys and window before a zone's first mutation

	parentClean   netsim.Handler
	attackerHits  *telemetry.Counter
	poisonUptake  *telemetry.Counter
	poisonActive  bool
	pseudoQueries map[string]dnswire.Name // nxns labels -> query name
}

func (d *matrixDriver) setup(l *lab) error {
	d.lab = l
	if err := l.useTestbed(); err != nil {
		return err
	}
	tb, reg := l.tb, l.reg
	d.saved = make(map[string]zone.SignOptions)
	d.pseudoQueries = make(map[string]dnswire.Name)

	var err error
	if d.profiles, err = selectProfiles(l.sc.Systems); err != nil {
		return err
	}
	for _, p := range d.profiles {
		d.resolvers = append(d.resolvers, l.newResolver(p))
	}
	l.afterActions = d.walkMatrix

	// One resolver per profile means per-resolver RegisterMetrics would
	// collide (registration is first-wins); publish aggregate views instead.
	sum := func(pick func(*resolver.Resolver) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, r := range d.resolvers {
				n += pick(r)
			}
			return n
		}
	}
	reg.CounterFunc("edelab_resolver_queries_total",
		"Outgoing queries to authoritative servers, all profiles.",
		sum(func(r *resolver.Resolver) uint64 { return r.QueryCount.Load() }))
	reg.CounterFunc("edelab_resolver_resolutions_total",
		"Client Resolve calls, all profiles.",
		sum(func(r *resolver.Resolver) uint64 { return r.ResolutionCount.Load() }))
	transportEvent := func(event string, pick func(resolver.TransportStats) uint64) {
		reg.CounterFunc("edelab_resolver_transport_events_total",
			"Transport-level events summed over all profiles.",
			sum(func(r *resolver.Resolver) uint64 { return pick(r.TransportStats()) }),
			telemetry.L("event", event))
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

// walkMatrix replays the selected cases through every selected profile
// when the phase's hypothesis reads Table 4 cells.
func (d *matrixDriver) walkMatrix(ctx context.Context, ph *Phase, obs *observations) error {
	readsCells := slices.ContainsFunc(ph.Expects, func(e Expect) bool {
		return e.Kind == "table4" || e.Kind == "cell"
	})
	if !readsCells {
		return nil
	}
	var err error
	obs.cells, err = d.walk(d.profiles, func(c testbed.Case, i int) (*dnswire.Message, error) {
		return d.resolvers[i].Resolve(ctx, c.Query, dnswire.TypeA).Msg, nil
	})
	return err
}

func (d *matrixDriver) act(ctx context.Context, a Action, obs *observations) error {
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
		return z.Sign(saved)
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
	return ErrUnknownAction
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
	d.saved[label] = opts
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
	if err := d.tb.Parent.Sign(d.saved["parent"]); err != nil {
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
		c, err := d.caseFor(label)
		if err != nil {
			return err
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
		obs.record(fmt.Sprintf("%s#%d", label, i+1), res.Msg)
	}
	return nil
}

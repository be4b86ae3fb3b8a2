package resolver

import (
	"context"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/authserver"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/zone"
)

// wildResolver materializes a fresh world over n requested domains and
// returns it with a resolver over it.
func wildResolver(t *testing.T, n int, readOnly bool) (*population.Wild, *Resolver) {
	t.Helper()
	w, err := population.Materialize(population.Generate(population.Config{TotalDomains: n, Seed: 20230515}))
	if err != nil {
		t.Fatal(err)
	}
	return w, resolverOn(w, readOnly)
}

// resolverOn returns a fresh resolver over w, on w's clock.
func resolverOn(w *population.Wild, readOnly bool) *Resolver {
	r := New(w.Net, w.Roots, w.Anchor, ProfileCloudflare())
	r.Now = w.Now
	r.AnswerCacheReadOnly = readOnly
	return r
}

// TestUniqueNameScanKeepsNothingPerName is the unique-name scan's memory
// property at the resolver: a fresh AnswerCacheReadOnly resolver that asks
// every domain of a population once ends with one shared cut per TLD and one
// zone-key entry per TLD plus the root, the same at 3,030 domains as at
// 30,300. Each domain's own cut and key verdict stayed on its resolution.
func TestUniqueNameScanKeepsNothingPerName(t *testing.T) {
	sizes := []int{3030, 30300}
	if testing.Short() {
		sizes = sizes[:1] // the race detector makes the large scan slow
	}
	for _, n := range sizes {
		w, r := wildResolver(t, n, true)
		pop := w.Pop
		const workers = 4
		var next atomic.Int64
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(pop.Domains); i = int(next.Add(1)) - 1 {
					r.Resolve(context.Background(), pop.Domains[i].Name, dnswire.TypeA)
				}
			}()
		}
		wg.Wait()

		cuts, keys := r.Cache.DelegationLen(), r.Cache.KeyLen()
		t.Logf("%d domains under %d TLDs: %d shared cuts, %d zone-key entries, %d answers",
			len(pop.Domains), len(pop.TLDs), cuts, keys, r.Cache.Len())
		if cuts != len(pop.TLDs) || keys != len(pop.TLDs)+1 || r.Cache.Len() != 0 {
			t.Errorf("%d domains: %d cuts, %d key entries, %d answers; want %d, %d, 0 (every TLD, and the root's keys)",
				len(pop.Domains), cuts, keys, r.Cache.Len(), len(pop.TLDs), len(pop.TLDs)+1)
		}
	}
}

// TestLeafCutsReachSubResolutions covers what the wild population never
// does: a client's own name whose CNAME chain runs through two glueless
// delegations, both served by a host in a third zone below the name. The
// first nameserver sub-resolution must start from the client's own cut and
// learn the hosts zone's cut on the resolution; the second must start from
// that. A read-only resolver then sends exactly the caching one's queries and
// files no cut below the client's name in Cache.
func TestLeafCutsReachSubResolutions(t *testing.T) {
	addr := func(i byte) netip.Addr { return netip.AddrFrom4([4]byte{198, 18, 20, i}) }
	name := dnswire.MustName
	root := zone.New(dnswire.Root, 86400)
	root.AddNS(name("a.root-servers.net"), addr(1))
	root.AddDelegation(name("com"), map[dnswire.Name][]netip.Addr{name("ns1.com"): {addr(2)}})
	com := zone.New(name("com"), 3600)
	com.AddNS(name("ns1.com"), addr(2))
	com.AddDelegation(name("example.com"), map[dnswire.Name][]netip.Addr{name("ns1.example.com"): {addr(3)}})
	ex := zone.New(name("example.com"), 3600)
	ex.AddNS(name("ns1.example.com"), addr(3))
	ex.Add(dnswire.RR{Name: name("example.com"), Class: dnswire.ClassIN, TTL: 300, Data: dnswire.CNAME{Target: name("t.a.example.com")}})
	ex.AddDelegation(name("hosts.example.com"), map[dnswire.Name][]netip.Addr{name("ns1.hosts.example.com"): {addr(4)}})
	ex.AddDelegation(name("a.example.com"), map[dnswire.Name][]netip.Addr{name("ns.hosts.example.com"): nil})
	ex.AddDelegation(name("b.example.com"), map[dnswire.Name][]netip.Addr{name("ns2.hosts.example.com"): nil})
	hosts := zone.New(name("hosts.example.com"), 3600)
	hosts.AddNS(name("ns1.hosts.example.com"), addr(4))
	hosts.AddAddress(name("ns.hosts.example.com"), addr(5))
	hosts.AddAddress(name("ns2.hosts.example.com"), addr(6))
	a := zone.New(name("a.example.com"), 3600)
	a.Add(dnswire.RR{Name: name("t.a.example.com"), Class: dnswire.ClassIN, TTL: 300, Data: dnswire.CNAME{Target: name("t.b.example.com")}})
	b := zone.New(name("b.example.com"), 3600)
	b.AddAddress(name("t.b.example.com"), addr(7))

	resolve := func(readOnly bool) (uint64, *Result, *Resolver) {
		net := netsim.New(1)
		for i, z := range []*zone.Zone{root, com, ex, hosts, a, b} {
			net.Register(addr(byte(i+1)), authserver.New(z))
		}
		r := New(net, []netip.Addr{addr(1)}, nil, ProfileCloudflare())
		r.Now = func() time.Time { return time.Unix(tNow, 0) }
		r.AnswerCacheReadOnly = readOnly
		res := r.Resolve(context.Background(), name("example.com"), dnswire.TypeA)
		return r.QueryCount.Load(), res, r
	}
	cachingQueries, cachingRes, _ := resolve(false)
	queries, res, r := resolve(true)
	if res.Msg.RCode != dnswire.RCodeNoError || len(res.Msg.Answer) != 3 {
		t.Fatalf("rcode %s, %d answers, conditions %v; want the two CNAMEs and the address", res.Msg.RCode, len(res.Msg.Answer), res.Conditions)
	}
	if queries != cachingQueries || !slices.Equal(res.Codes(), cachingRes.Codes()) {
		t.Errorf("read-only: %d queries, codes %v; caching: %d queries, codes %v", queries, res.Codes(), cachingQueries, cachingRes.Codes())
	}
	if n := r.Cache.DelegationLen(); n != 1 {
		t.Errorf("read-only resolver filed %d cuts in Cache, want 1 (com)", n)
	}
}

// TestLeafStateSendsTheSameQueries: keeping a name's own cut and keys on its
// resolution changes nothing on the wire. Two fresh resolvers over one world
// make one sequential pass each, AnswerCacheReadOnly off on one and on on the
// other, and every domain must cost the same upstream queries and get the
// same RCODE and EDE set. The iteration-loop class chases CNAMEs below its own cut, which
// the chase must find on the resolution or pay the TLD again.
func TestLeafStateSendsTheSameQueries(t *testing.T) {
	type outcome struct {
		queries uint64
		rcode   dnswire.RCode
		codes   []uint16
	}
	w, caching := wildResolver(t, 3030, false)
	pop := w.Pop
	pass := func(r *Resolver) []outcome {
		out := make([]outcome, len(pop.Domains))
		for i, d := range pop.Domains {
			before := r.QueryCount.Load()
			res := r.Resolve(context.Background(), d.Name, dnswire.TypeA)
			out[i] = outcome{r.QueryCount.Load() - before, res.Msg.RCode, res.Codes()}
		}
		return out
	}
	cached, leaf := pass(caching), pass(resolverOn(w, true))

	perClass := make(map[population.Class]uint64)
	for i, d := range pop.Domains {
		c, l := cached[i], leaf[i]
		if c.queries != l.queries || c.rcode != l.rcode || !slices.Equal(c.codes, l.codes) {
			t.Errorf("%s (%s): %d queries, %s %v caching; %d queries, %s %v read-only",
				d.Name, d.Class, c.queries, c.rcode, c.codes, l.queries, l.rcode, l.codes)
		}
		perClass[d.Class] += l.queries
	}
	for _, class := range []population.Class{population.ClassIterLoop, population.ClassLameRefused} {
		if perClass[class] == 0 {
			t.Errorf("the population has no %s domain to compare", class)
		}
		t.Logf("%s: %d upstream queries on both sides", class, perClass[class])
	}
}

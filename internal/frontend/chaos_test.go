package frontend

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/authserver"
	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/zone"
)

// chaosWorld is a signed root→com→example.com environment with a real
// resolver upstream, for frontend tests under injected faults. The resolver
// and the frontend read one clock.
type chaosWorld struct {
	net *netsim.Network
	res *resolver.Resolver
	fe  *Frontend
	clk *fakeClock

	roots  []netip.Addr
	anchor []dnswire.DS
}

func buildChaosWorld(t *testing.T, prof *resolver.Profile, cfg Config) *chaosWorld {
	t.Helper()
	const (
		inception  = 1700000000
		expiration = 1800000000
		now        = 1750000000
	)
	w := &chaosWorld{net: netsim.New(5)}
	rootAddr := netip.MustParseAddr("198.18.20.1")
	comAddr := netip.MustParseAddr("198.18.20.2")
	exAddr := netip.MustParseAddr("198.18.20.3")

	opts := zone.SignOptions{Inception: inception, Expiration: expiration}

	ex := zone.New(dnswire.MustName("example.com"), 300)
	ex.AddNS(dnswire.MustName("ns1.example.com"), exAddr)
	ex.AddAddress(dnswire.MustName("www.example.com"), netip.MustParseAddr("203.0.113.20"))
	if err := ex.Sign(opts); err != nil {
		t.Fatal(err)
	}

	com := zone.New(dnswire.MustName("com"), 3600)
	com.AddNS(dnswire.MustName("ns1.com"), comAddr)
	com.AddDelegation(dnswire.MustName("example.com"), map[dnswire.Name][]netip.Addr{
		dnswire.MustName("ns1.example.com"): {exAddr},
	})
	exDS, err := ex.DS(dnssec.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	com.AddDS(dnswire.MustName("example.com"), exDS...)
	if err := com.Sign(opts); err != nil {
		t.Fatal(err)
	}

	root := zone.New(dnswire.Root, 86400)
	root.AddNS(dnswire.MustName("a.root-servers.net"), rootAddr)
	root.AddDelegation(dnswire.MustName("com"), map[dnswire.Name][]netip.Addr{
		dnswire.MustName("ns1.com"): {comAddr},
	})
	comDS, err := com.DS(dnssec.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	root.AddDS(dnswire.MustName("com"), comDS...)
	if err := root.Sign(opts); err != nil {
		t.Fatal(err)
	}
	anchor, err := root.DS(dnssec.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}

	w.net.Register(rootAddr, authserver.New(root))
	w.net.Register(comAddr, authserver.New(com))
	w.net.Register(exAddr, authserver.New(ex))

	w.roots, w.anchor = []netip.Addr{rootAddr}, anchor
	w.clk = &fakeClock{t: time.Unix(now, 0)}
	w.res = w.newResolver(prof)
	cfg.Now = w.clk.Now
	w.fe = New(forwarder.ResolverUpstream{R: w.res}, cfg)
	return w
}

// newResolver is a resolver of the world on the world's clock.
func (w *chaosWorld) newResolver(prof *resolver.Profile) *resolver.Resolver {
	r := resolver.New(w.net, w.roots, w.anchor, prof)
	r.Now = w.clk.Now
	return r
}

// TestChaosServeStaleWhenBackendFlaps drives the satellite requirement:
// when the authoritative backend flaps down, the frontend must fall back to
// its expired cache entry and mark it with EDE 3 (Stale Answer); when the
// backend flaps back up, fresh resolution resumes with no stale marker.
func TestChaosServeStaleWhenBackendFlaps(t *testing.T) {
	w := buildChaosWorld(t, resolver.ProfileCloudflare(), Config{StaleWindow: 24 * time.Hour, QueryTimeout: time.Second})
	ctx := context.Background()

	// Backend up: prime the cache.
	resp, err := w.fe.HandleDNS(ctx, query("www.example.com"))
	if err != nil || resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("prime: rcode=%v err=%v", resp.RCode, err)
	}
	if len(resp.Answer) == 0 {
		t.Fatal("prime returned no answer")
	}

	// The record (TTL 300) expires; the backend flaps down — each endpoint
	// answers one more query, then drops everything (a crash-looping path).
	// The resolver's own cache is flushed so the failure is real.
	w.clk.Advance(10 * time.Minute)
	w.net.SetFaults(netsim.NewFaultPlan(99, netsim.FaultProfile{FlapUp: 1, FlapDown: 1 << 20}))
	w.res.Cache.Flush()

	resp, err = w.fe.HandleDNS(ctx, query("www.example.com"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("stale serve: rcode = %s, want NOERROR from stale data", resp.RCode)
	}
	if len(resp.Answer) == 0 {
		t.Fatal("stale serve returned no answer")
	}
	hasEDE(t, resp, ede.CodeStaleAnswer)
	for _, rr := range resp.Answer {
		if rr.TTL != staleTTL {
			t.Fatalf("stale answer TTL = %d, want the fixed stale TTL %d", rr.TTL, staleTTL)
		}
	}
	if w.fe.Metrics().Snapshot().StaleServes == 0 {
		t.Fatal("staleServes metric not incremented")
	}

	// Backend back up: resolution recovers, no stale marker.
	w.net.SetFaults(nil)
	w.res.Cache.Flush()
	resp, err = w.fe.HandleDNS(ctx, query("www.example.com"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("recovery: rcode = %s", resp.RCode)
	}
	for _, e := range resp.EDEs() {
		if e.InfoCode == uint16(ede.CodeStaleAnswer) {
			t.Fatal("recovered response still marked stale")
		}
	}
}

// TestChaosStaleIsTheProfilesCall: a frontend answers as the resolver behind
// it would answer alone. For every profile, a frontend over a resolver and a
// standalone resolver (forwarder.New) give the same RCODE, EDE set and
// answer count while a cached name expires, its authorities go down and come
// back. Only BIND and Cloudflare serve stale, and only Cloudflare marks a
// cached error with EDE 13.
func TestChaosStaleIsTheProfilesCall(t *testing.T) {
	steps := []struct {
		name    string
		advance time.Duration
		down    bool
	}{
		{"prime", 0, false},
		{"expired", 10 * time.Minute, false},
		{"expired, authorities down", 10 * time.Minute, true},
		{"still down", 0, true},
		{"back up inside the error TTL", 0, false},
		{"back up", time.Minute, false},
	}
	outcome := func(m *dnswire.Message) string {
		codes := m.EDECodes()
		slices.Sort(codes)
		return fmt.Sprintf("%s, %d answers, EDE %v", m.RCode, len(m.Answer), codes)
	}
	ctx := context.Background()
	for _, prof := range resolver.AllProfiles() {
		t.Run(prof.Name, func(t *testing.T) {
			w := buildChaosWorld(t, prof, Config{QueryTimeout: time.Second})
			alone := forwarder.New(forwarder.ResolverUpstream{R: w.newResolver(prof)})
			for _, s := range steps {
				w.clk.Advance(s.advance)
				if s.down {
					w.net.SetFaults(netsim.NewFaultPlan(1, netsim.FaultProfile{Loss: 1}))
				} else {
					w.net.SetFaults(nil)
				}
				fronted, err := w.fe.HandleDNS(ctx, query("www.example.com"))
				if err != nil {
					t.Fatal(err)
				}
				direct, err := alone.HandleDNS(ctx, query("www.example.com"))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := outcome(fronted), outcome(direct); got != want {
					t.Errorf("%s: the frontend answers %s; the resolver alone %s", s.name, got, want)
				}
			}
		})
	}
}

// TestChaosCoalescedQueriesShareRetriedResult: N concurrent clients asking
// the same question through a lossy network must cost one upstream recursion
// (the flight leader's, which retries through the loss) and all observe that
// same result.
func TestChaosCoalescedQueriesShareRetriedResult(t *testing.T) {
	w := buildChaosWorld(t, resolver.ProfileCloudflare(), Config{QueryTimeout: 2 * time.Second})
	w.net.SetFaults(netsim.NewFaultPlan(7, netsim.FaultProfile{Loss: 0.3}))
	w.res.Transport = &resolver.TransportConfig{
		Retries: 8,
		Sleep:   func(context.Context, time.Duration) {},
	}

	const clients = 16
	var wg sync.WaitGroup
	responses := make([]*dnswire.Message, clients)
	errs := make([]error, clients)
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			responses[i], errs[i] = w.fe.HandleDNS(context.Background(), query("www.example.com"))
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if responses[i].RCode != dnswire.RCodeNoError {
			t.Fatalf("client %d: rcode = %s (retry policy failed under 30%% loss)", i, responses[i].RCode)
		}
		if len(responses[i].Answer) != len(responses[0].Answer) {
			t.Fatalf("client %d observed %d answers, client 0 observed %d — coalesced clients diverged",
				i, len(responses[i].Answer), len(responses[0].Answer))
		}
		if got, want := responses[i].EDECodes(), responses[0].EDECodes(); len(got) != len(want) {
			t.Fatalf("client %d EDEs %v differ from client 0's %v", i, got, want)
		}
	}

	snap := w.fe.Metrics().Snapshot()
	if snap.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 upstream recursion for %d coalesced clients", snap.Misses, clients)
	}
	if snap.Hits+snap.CoalescedWaits != clients-1 {
		t.Fatalf("hits=%d coalesced=%d, want them to cover the other %d clients", snap.Hits, snap.CoalescedWaits, clients-1)
	}
}

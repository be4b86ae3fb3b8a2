package resolver

import (
	"context"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// TestDelegationCacheWarmSingleQuery is the tentpole property: once the
// infrastructure is warm, resolving a fresh name under a known zone cut
// costs exactly one upstream query (the terminal authoritative one) instead
// of re-walking root→TLD→zone.
func TestDelegationCacheWarmSingleQuery(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())
	r.AnswerCacheReadOnly = true // model a zdns scan: every name unique

	res := r.Resolve(context.Background(), dnswire.MustName("www.example.com"), dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeNoError || !res.Msg.AuthenticData {
		t.Fatalf("cold resolve: rcode=%s AD=%t conds=%v", res.Msg.RCode, res.Msg.AuthenticData, res.Conditions)
	}
	if got := r.Cache.DelegationLen(); got != 2 {
		t.Fatalf("cached cuts = %d, want 2 (com and example.com)", got)
	}

	before := r.QueryCount.Load()
	res = r.Resolve(context.Background(), dnswire.MustName("example.com"), dnswire.TypeA)
	warmQueries := r.QueryCount.Load() - before
	if res.Msg.RCode != dnswire.RCodeNoError || !res.Msg.AuthenticData {
		t.Fatalf("warm resolve: rcode=%s AD=%t conds=%v", res.Msg.RCode, res.Msg.AuthenticData, res.Conditions)
	}
	if warmQueries != 1 {
		t.Errorf("warm-infrastructure resolve cost %d queries, want 1", warmQueries)
	}
}

// TestDelegationCacheDisabled restores the historical behaviour: nothing is
// cached and every resolution re-walks from the root.
func TestDelegationCacheDisabled(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())
	r.AnswerCacheReadOnly = true
	r.DisableDelegationCache = true

	r.Resolve(context.Background(), dnswire.MustName("www.example.com"), dnswire.TypeA)
	if got := r.Cache.DelegationLen(); got != 0 {
		t.Fatalf("cached cuts = %d, want 0 with the cache disabled", got)
	}
	before := r.QueryCount.Load()
	res := r.Resolve(context.Background(), dnswire.MustName("example.com"), dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode=%s", res.Msg.RCode)
	}
	if q := r.QueryCount.Load() - before; q < 3 {
		t.Errorf("disabled cache resolve cost %d queries, want the full >=3-query walk", q)
	}
}

// TestDelegationCacheTTLFallsBackToParent advances the clock past the
// example.com cut's TTL (3600s from the com zone) but within the com cut's:
// lookup must fall back to the parent cut and re-fetch only the expired
// referral — never the root.
func TestDelegationCacheTTLFallsBackToParent(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())
	r.AnswerCacheReadOnly = true

	r.Resolve(context.Background(), dnswire.MustName("www.example.com"), dnswire.TypeA)

	later := time.Unix(tNow+2*3600, 0)
	r.Now = func() time.Time { return later }
	zone, cut := r.Cache.getDelegation(dnswire.MustName("www.example.com"), later)
	if cut == nil || zone != dnswire.MustName("com") {
		t.Fatalf("deepest fresh cut after expiry = %q (cut=%v), want com", zone, cut != nil)
	}

	// Make any attempt to consult the root fail loudly: the parent-cut start
	// means the root server is never needed again.
	w.net.Deregister(netip.MustParseAddr("198.18.10.1"))
	res := r.Resolve(context.Background(), dnswire.MustName("www.example.com"), dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeNoError || !res.Msg.AuthenticData {
		t.Fatalf("post-expiry resolve: rcode=%s AD=%t conds=%v", res.Msg.RCode, res.Msg.AuthenticData, res.Conditions)
	}
	// The re-walked referral refreshed the example.com cut (shared: it lies
	// above the question).
	if _, cut := r.Cache.getDelegation(dnswire.MustName("example.com"), later); cut == nil {
		t.Error("example.com cut was not refreshed by the fallback walk")
	}
}

// TestServersForReferralBailiwickGuard exercises the poisoning guard:
// referral address sets are only cacheable when every address comes from
// glue owned by one of the child's NS hosts inside the child zone.
func TestServersForReferralBailiwickGuard(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())
	child := dnswire.MustName("example.com")
	ns := dnswire.RR{Name: child, Class: dnswire.ClassIN, TTL: 3600,
		Data: dnswire.NS{Host: dnswire.MustName("ns1.example.com")}}
	glue := func(owner string, ttl uint32) dnswire.RR {
		return dnswire.RR{Name: dnswire.MustName(owner), Class: dnswire.ClassIN, TTL: ttl,
			Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}}
	}

	cases := []struct {
		name      string
		extra     []dnswire.RR
		cacheable bool
		ttl       uint32
	}{
		{"in-bailiwick glue", []dnswire.RR{glue("ns1.example.com", 1200)}, true, 1200},
		{"foreign-owner glue", []dnswire.RR{glue("ns1.example.com", 1200), glue("evil.attacker", 1200)}, false, 0},
		{"non-NS in-zone owner", []dnswire.RR{glue("www.example.com", 1200)}, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := &resolution{r: r, ctx: context.Background()}
			resp := &dnswire.Message{Authority: []dnswire.RR{ns}, Additional: tc.extra}
			addrs, cacheable, ttl := st.serversForReferral(resp, child, 0)
			if len(addrs) != len(tc.extra) {
				t.Errorf("addrs = %d, want %d (resolution behaviour must not change)", len(addrs), len(tc.extra))
			}
			if cacheable != tc.cacheable {
				t.Errorf("cacheable = %t, want %t", cacheable, tc.cacheable)
			}
			if tc.cacheable && ttl != tc.ttl {
				t.Errorf("ttl = %d, want %d (min of NS and glue TTLs)", ttl, tc.ttl)
			}
		})
	}
}

// TestDelegationCacheConcurrent hammers deepest-match lookups, inserts, and
// flushes from many goroutines; run under -race in CI.
func TestDelegationCacheConcurrent(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())
	r.AnswerCacheReadOnly = true
	names := []dnswire.Name{
		dnswire.MustName("www.example.com"),
		dnswire.MustName("example.com"),
		dnswire.MustName("alias.example.com"),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := names[(g+i)%len(names)]
				res := r.Resolve(context.Background(), name, dnswire.TypeA)
				if res.Msg.RCode != dnswire.RCodeNoError {
					t.Errorf("%s: rcode=%s", name, res.Msg.RCode)
					return
				}
				if g == 0 && i%20 == 19 {
					r.Cache.Flush()
				}
			}
		}(g)
	}
	wg.Wait()
}

package resolver

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/authserver"
	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/zone"
)

const (
	tInception  = 1700000000
	tExpiration = 1800000000
	tNow        = 1750000000
)

// world is a minimal signed root→com→example.com environment.
type world struct {
	net     *netsim.Network
	roots   []netip.Addr
	anchor  []dnswire.DS
	example *zone.Zone
	exAddr  netip.Addr
}

func buildWorld(t *testing.T) *world {
	t.Helper()
	w := &world{net: netsim.New(1)}
	rootAddr := netip.MustParseAddr("198.18.10.1")
	comAddr := netip.MustParseAddr("198.18.10.2")
	w.exAddr = netip.MustParseAddr("198.18.10.3")

	opts := zone.SignOptions{Inception: tInception, Expiration: tExpiration}

	ex := zone.New(dnswire.MustName("example.com"), 300)
	ex.AddNS(dnswire.MustName("ns1.example.com"), w.exAddr)
	ex.AddAddress(dnswire.MustName("example.com"), netip.MustParseAddr("203.0.113.10"))
	ex.AddAddress(dnswire.MustName("www.example.com"), netip.MustParseAddr("203.0.113.11"))
	ex.Add(dnswire.RR{Name: dnswire.MustName("alias.example.com"), Class: dnswire.ClassIN,
		TTL: 300, Data: dnswire.CNAME{Target: dnswire.MustName("www.example.com")}})
	ex.Add(dnswire.RR{Name: dnswire.MustName("loop.example.com"), Class: dnswire.ClassIN,
		TTL: 300, Data: dnswire.CNAME{Target: dnswire.MustName("loop.example.com")}})
	if err := ex.Sign(opts); err != nil {
		t.Fatal(err)
	}
	w.example = ex

	com := zone.New(dnswire.MustName("com"), 3600)
	com.AddNS(dnswire.MustName("ns1.com"), comAddr)
	com.AddDelegation(dnswire.MustName("example.com"), map[dnswire.Name][]netip.Addr{
		dnswire.MustName("ns1.example.com"): {w.exAddr},
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
	w.anchor = anchor
	w.roots = []netip.Addr{rootAddr}

	w.net.Register(rootAddr, authserver.New(root))
	w.net.Register(comAddr, authserver.New(com))
	w.net.Register(w.exAddr, authserver.New(ex))
	return w
}

func (w *world) resolver(p *Profile) *Resolver {
	r := New(w.net, w.roots, w.anchor, p)
	r.Now = func() time.Time { return time.Unix(tNow, 0) }
	return r
}

func TestResolveValidatesChain(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())
	res := r.Resolve(context.Background(), dnswire.MustName("www.example.com"), dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode = %s, conditions = %v", res.Msg.RCode, res.Conditions)
	}
	if !res.Msg.AuthenticData || !res.Secure {
		t.Errorf("AD=%t secure=%t", res.Msg.AuthenticData, res.Secure)
	}
	if len(res.Msg.Answer) == 0 {
		t.Error("no answer records")
	}
}

func TestResolveNXDomainValidated(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())
	res := r.Resolve(context.Background(), dnswire.MustName("missing.example.com"), dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %s, conditions = %v", res.Msg.RCode, res.Conditions)
	}
	if len(res.Codes()) != 0 {
		t.Errorf("codes = %v for a valid denial", res.Codes())
	}
}

func TestResolveCNAMEChase(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())
	res := r.Resolve(context.Background(), dnswire.MustName("alias.example.com"), dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode = %s, conditions = %v", res.Msg.RCode, res.Conditions)
	}
	var haveCNAME, haveA bool
	for _, rr := range res.Msg.Answer {
		switch rr.Type() {
		case dnswire.TypeCNAME:
			haveCNAME = true
		case dnswire.TypeA:
			haveA = true
		}
	}
	if !haveCNAME || !haveA {
		t.Errorf("answer missing CNAME (%t) or A (%t)", haveCNAME, haveA)
	}
}

func TestResolveCNAMELoopHitsIterationLimit(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())
	res := r.Resolve(context.Background(), dnswire.MustName("loop.example.com"), dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %s", res.Msg.RCode)
	}
	found := false
	for _, c := range res.Conditions {
		if c == ConditionIterationLimit {
			found = true
		}
	}
	if !found {
		t.Errorf("conditions = %v, want iteration limit", res.Conditions)
	}
}

func TestCacheFreshHit(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())
	name := dnswire.MustName("www.example.com")
	r.Resolve(context.Background(), name, dnswire.TypeA)
	before := w.net.Stats().Queries
	res := r.Resolve(context.Background(), name, dnswire.TypeA)
	after := w.net.Stats().Queries
	if after != before {
		t.Errorf("cache hit still sent %d queries", after-before)
	}
	if res.Msg.RCode != dnswire.RCodeNoError || len(res.Msg.Answer) == 0 {
		t.Errorf("cached response wrong: %s", res.Msg.RCode)
	}
}

func TestServeStaleAfterServerDeath(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())
	name := dnswire.MustName("www.example.com")
	res := r.Resolve(context.Background(), name, dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeNoError {
		t.Fatalf("warmup failed: %s %v", res.Msg.RCode, res.Conditions)
	}

	// The zone's server goes dark and the entry expires.
	w.net.Deregister(w.exAddr)
	r.Now = func() time.Time { return time.Unix(tNow+7200, 0) }

	res = r.Resolve(context.Background(), name, dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeNoError {
		t.Fatalf("stale resolution rcode = %s, conditions = %v", res.Msg.RCode, res.Conditions)
	}
	codes := res.Codes()
	want := map[uint16]bool{3: false, 22: false}
	for _, c := range codes {
		if _, ok := want[c]; ok {
			want[c] = true
		}
	}
	if !want[3] || !want[22] {
		t.Errorf("codes = %v, want 3 (Stale Answer) and 22", codes)
	}
}

// TestServeStaleNXDOMAINAfterServerDeath is the negative twin: an expired
// NXDOMAIN is served stale (EDE 19) when the zone's server is gone.
func TestServeStaleNXDOMAINAfterServerDeath(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())
	name := dnswire.MustName("nonexistent.example.com")
	res := r.Resolve(context.Background(), name, dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("warmup: %s %v, want NXDOMAIN", res.Msg.RCode, res.Conditions)
	}

	// The zone's server goes dark and the 300 s negative entry expires.
	w.net.Deregister(w.exAddr)
	r.Now = func() time.Time { return time.Unix(tNow+600, 0) }

	res = r.Resolve(context.Background(), name, dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("stale resolution rcode = %s, conditions = %v", res.Msg.RCode, res.Conditions)
	}
	if !slices.Contains(res.Conditions, ConditionStaleNXServed) {
		t.Errorf("conditions = %v, want %v among them", res.Conditions, ConditionStaleNXServed)
	}
	codes := res.Codes()
	if !slices.Contains(codes, 19) || !slices.Contains(codes, 22) {
		t.Errorf("codes = %v, want 19 (Stale NXDOMAIN Answer) and 22", codes)
	}
}

func TestNoServeStaleWithoutProfileSupport(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileOpenDNS()) // no serve-stale
	name := dnswire.MustName("www.example.com")
	r.Resolve(context.Background(), name, dnswire.TypeA)
	w.net.Deregister(w.exAddr)
	r.Now = func() time.Time { return time.Unix(tNow+7200, 0) }
	res := r.Resolve(context.Background(), name, dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeServFail {
		t.Errorf("rcode = %s, want SERVFAIL without serve-stale", res.Msg.RCode)
	}
}

func TestCachedErrorSecondHit(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())
	w.net.Deregister(w.exAddr)
	name := dnswire.MustName("www2.example.com")
	res := r.Resolve(context.Background(), name, dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeServFail {
		t.Fatalf("first: %s", res.Msg.RCode)
	}
	// Second hit within the error TTL serves from the error cache with
	// EDE 13 attached.
	res = r.Resolve(context.Background(), name, dnswire.TypeA)
	found := false
	for _, c := range res.Codes() {
		if c == 13 {
			found = true
		}
	}
	if !found {
		t.Errorf("codes = %v, want 13 (Cached Error)", res.Codes())
	}
}

func TestUnreachableSignedZoneAddsDNSKEYUnobtainable(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())
	w.net.Register(w.exAddr, netsim.StaticRCode(dnswire.RCodeRefused))
	res := r.Resolve(context.Background(), dnswire.MustName("www.example.com"), dnswire.TypeA)
	set := ede.Set{}
	for _, c := range res.Codes() {
		set = append(set, ede.Code(c))
	}
	if !set.Equal(ede.Set{9, 22, 23}) {
		t.Errorf("codes = %v, want 9,22,23 (ACL pattern)", set)
	}
}

func TestProfileCodesDedupAndSort(t *testing.T) {
	p := ProfileCloudflare()
	var set ede.Set
	for _, o := range p.Report([]Condition{
		ConditionUnreachableRefused, ConditionDNSKEYUnobtainable,
		ConditionUnreachableRefused, // duplicate
	}, nil) {
		set = append(set, ede.Code(o.InfoCode))
	}
	if !set.Equal(ede.Set{9, 22, 23}) {
		t.Errorf("codes = %v", set)
	}
	for i := 1; i < len(set); i++ {
		if set[i] < set[i-1] {
			t.Errorf("codes not sorted: %v", set)
		}
	}
}

// TestProfileReportExtraText: under ExtraText an option's EXTRA-TEXT is the
// detail of the first condition that maps to its code and has one; a profile
// without ExtraText attaches none.
func TestProfileReportExtraText(t *testing.T) {
	conds := []Condition{ConditionUnreachableRefused, ConditionUpstreamError, ConditionNetworkError, ConditionDNSKEYUnobtainable}
	details := map[Condition]string{
		ConditionUpstreamError:      "first detail behind 23",
		ConditionNetworkError:       "second detail behind 23",
		ConditionDNSKEYUnobtainable: "no DNSKEY",
	}
	got := fmt.Sprint(ProfileCloudflare().Report(conds, details))
	if want := `[EDE 9: "no DNSKEY" EDE 22 EDE 23: "first detail behind 23"]`; got != want {
		t.Errorf("Cloudflare reports %s, want %s", got, want)
	}
	if got := fmt.Sprint(ProfileUnbound().Report([]Condition{ConditionDSNoMatchingKey}, map[Condition]string{ConditionDSNoMatchingKey: "x"})); got != "[EDE 9]" {
		t.Errorf("Unbound reports %s, want [EDE 9] without EXTRA-TEXT", got)
	}
}

func TestConditionClasses(t *testing.T) {
	cases := []struct {
		c    Condition
		want Class
	}{
		{ConditionOK, ClassOK},
		{ConditionInsecure, ClassInsecure},
		{ConditionAlgDeprecated, ClassInsecure},
		{ConditionDSNoMatchingKey, ClassBogus},
		{ConditionNSEC3BadHash, ClassBogus},
		{ConditionUnreachableRefused, ClassLame},
		{ConditionStaleServed, ClassDegraded},
		{ConditionStandbyKSKUnsigned, ClassAdvisory},
		{ConditionUpstreamError, ClassAdvisory},
	}
	for _, c := range cases {
		if got := ClassOf(c.c); got != c.want {
			t.Errorf("ClassOf(%s) = %v, want %v", c.c, got, c.want)
		}
	}
}

func TestConditionStringsAreNamed(t *testing.T) {
	for c := ConditionOK; c < numConditions; c++ {
		if s := c.String(); len(s) == 0 || s[0] == 'C' && len(s) > 9 && s[:9] == "Condition" {
			t.Errorf("condition %d has no name", int(c))
		}
	}
}

func TestAllProfilesNamed(t *testing.T) {
	profiles := AllProfiles()
	if len(profiles) != 7 {
		t.Fatalf("%d profiles, want 7", len(profiles))
	}
	names := map[string]bool{}
	for _, p := range profiles {
		if p.Name == "" || names[p.Name] {
			t.Errorf("bad or duplicate profile name %q", p.Name)
		}
		names[p.Name] = true
		if p.Support.Algorithms == nil {
			t.Errorf("%s has no support set", p.Name)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, p := range AllProfiles() {
		first, _, _ := strings.Cut(p.Name, " ")
		for _, name := range []string{p.Name, first, strings.ToLower(first), strings.ToUpper(first)} {
			if got, ok := ProfileByName(name); !ok || got.Name != p.Name {
				t.Errorf("ProfileByName(%q) = %v, %t; want %s", name, got, ok, p.Name)
			}
		}
	}
	// The substring matcher this replaced read these as Cloudflare (the
	// silent default), PowerDNS, BIND and BIND.
	for _, name := range []string{"google", "dns", "9", "", "*", "bind 9", "BIND 9.19", "cloud"} {
		if got, ok := ProfileByName(name); ok {
			t.Errorf("ProfileByName(%q) matched %s, want no match", name, got.Name)
		}
	}
}

func TestWorstClass(t *testing.T) {
	if got := worstClass(nil); got != ClassOK {
		t.Errorf("empty = %v", got)
	}
	if got := worstClass([]Condition{ConditionInsecure, ConditionUnreachableRefused}); got != ClassLame {
		t.Errorf("lame+insecure = %v", got)
	}
	// Stale rescues lame.
	if got := worstClass([]Condition{ConditionUnreachableRefused, ConditionStaleServed}); got != ClassDegraded {
		t.Errorf("stale+lame = %v", got)
	}
}

// TestRetriesSurviveLoss injects packet loss and verifies that per-server
// retries rescue resolutions a single-shot scanner would misclassify as
// lame delegation — the §5 concern about load versus measurement accuracy.
func TestRetriesSurviveLoss(t *testing.T) {
	w := buildWorld(t)
	w.net.SetLossRate(0.4)

	failures := func(retries int) int {
		failed := 0
		for i := 0; i < 30; i++ {
			r := w.resolver(ProfileCloudflare())
			r.Transport = &TransportConfig{Retries: retries}
			res := r.Resolve(context.Background(), dnswire.MustName("www.example.com"), dnswire.TypeA)
			if res.Msg.RCode != dnswire.RCodeNoError {
				failed++
			}
		}
		return failed
	}
	oneShot := failures(1)
	withRetries := failures(5)
	if withRetries >= oneShot && oneShot > 0 {
		t.Errorf("retries did not help: 1-shot failures=%d, 5-retry failures=%d", oneShot, withRetries)
	}
	if withRetries > 3 {
		t.Errorf("with 5 retries, %d/30 resolutions still failed at 40%% loss", withRetries)
	}
}

// queryEvents lists the rendered trace's upstream-query events, which
// Render prints in the order the resolver issued them.
func queryEvents(tr *telemetry.Trace) []string {
	var out []string
	for _, line := range strings.Split(tr.Render(), "\n") {
		if _, q, ok := strings.Cut(line, "· query "); ok {
			out = append(out, "query "+q)
		}
	}
	return out
}

// TestTraceRecordsResolutionPath checks the dig-+trace view the span tree
// gives: one query event per upstream exchange, root first.
func TestTraceRecordsResolutionPath(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())
	ctx, tr := telemetry.StartTrace(context.Background(), "www.example.com. A")
	r.Resolve(ctx, dnswire.MustName("www.example.com"), dnswire.TypeA)
	steps := queryEvents(tr)
	if len(steps) < 3 {
		t.Fatalf("trace has %d query steps, want the root→com→example chain: %q", len(steps), steps)
	}
	// The first step must be the root query.
	if want := "query www.example.com. A @" + w.roots[0].String(); !strings.HasPrefix(steps[0], want) {
		t.Errorf("first step = %q, want prefix %q", steps[0], want)
	}
	// The trace must include the final answer query and the DNSKEY fetches
	// of the validation chain.
	var sawAnswer, sawDNSKEY bool
	for _, step := range steps {
		if strings.HasPrefix(step, "query www.example.com. A @") && !strings.Contains(step, "(0 answers") {
			sawAnswer = true
		}
		if strings.Contains(step, " DNSKEY @") {
			sawDNSKEY = true
		}
	}
	if !sawAnswer || !sawDNSKEY {
		t.Errorf("trace missing answer (%t) or DNSKEY (%t) steps: %q", sawAnswer, sawDNSKEY, steps)
	}
}

// TestTraceOffByDefault: a resolution whose context carries no trace records
// into none.
func TestTraceOffByDefault(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())
	_, tr := telemetry.StartTrace(context.Background(), "bystander")
	r.Resolve(context.Background(), dnswire.MustName("www.example.com"), dnswire.TypeA)
	if snap := tr.Snapshot(); snap.Spans != 1 || snap.Events != 0 {
		t.Errorf("trace recorded without opting in: %d spans, %d events", snap.Spans, snap.Events)
	}
}

// TestOutOfBailiwickNS exercises the glueless-delegation path: the child's
// nameserver lives in a different zone and must itself be resolved first.
func TestOutOfBailiwickNS(t *testing.T) {
	w := buildWorld(t)

	// A second TLD hosting the nameserver of a gluelessly-delegated child.
	netAddr := netip.MustParseAddr("198.18.10.20")
	hostAddr := netip.MustParseAddr("198.18.10.21")
	childAddr := netip.MustParseAddr("198.18.10.22")
	opts := zone.SignOptions{Inception: tInception, Expiration: tExpiration}

	netZone := zone.New(dnswire.MustName("net"), 3600)
	netZone.AddNS(dnswire.MustName("ns1.net"), netAddr)
	netZone.AddDelegation(dnswire.MustName("hoster.net"), map[dnswire.Name][]netip.Addr{
		dnswire.MustName("ns1.hoster.net"): {hostAddr},
	})
	if err := netZone.Sign(opts); err != nil {
		t.Fatal(err)
	}
	hoster := zone.New(dnswire.MustName("hoster.net"), 300)
	hoster.AddNS(dnswire.MustName("ns1.hoster.net"), hostAddr)
	// The out-of-bailiwick nameserver host's address.
	hoster.AddAddress(dnswire.MustName("dns.hoster.net"), netip.MustParseAddr("198.18.10.22"))

	// Rebuild the root with both TLDs. The glueless child lives under com.
	rootAddr := w.roots[0]
	root := zone.New(dnswire.Root, 86400)
	root.AddNS(dnswire.MustName("a.root-servers.net"), rootAddr)
	root.AddDelegation(dnswire.MustName("com"), map[dnswire.Name][]netip.Addr{
		dnswire.MustName("ns1.com"): {netip.MustParseAddr("198.18.10.2")},
	})
	root.AddDelegation(dnswire.MustName("net"), map[dnswire.Name][]netip.Addr{
		dnswire.MustName("ns1.net"): {netAddr},
	})
	netDS, err := netZone.DS(dnssec.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	root.AddDS(dnswire.MustName("net"), netDS...)
	if err := root.Sign(opts); err != nil {
		t.Fatal(err)
	}
	anchor, err := root.DS(dnssec.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}

	// com delegates glueless.example.com to dns.hoster.net WITHOUT glue.
	com := zone.New(dnswire.MustName("com"), 3600)
	com.AddNS(dnswire.MustName("ns1.com"), netip.MustParseAddr("198.18.10.2"))
	com.AddDelegation(dnswire.MustName("glueless.example-b.com"), map[dnswire.Name][]netip.Addr{
		dnswire.MustName("dns.hoster.net"): nil,
	})
	if err := com.Sign(opts); err != nil {
		t.Fatal(err)
	}

	child := zone.New(dnswire.MustName("glueless.example-b.com"), 300)
	child.AddNS(dnswire.MustName("dns.hoster.net"))
	child.AddAddress(dnswire.MustName("glueless.example-b.com"), netip.MustParseAddr("203.0.113.99"))

	w.net.Register(rootAddr, authserver.New(root))
	w.net.Register(netip.MustParseAddr("198.18.10.2"), authserver.New(com))
	w.net.Register(netAddr, authserver.New(netZone))
	w.net.Register(hostAddr, authserver.New(hoster))
	w.net.Register(childAddr, authserver.New(child))

	r := New(w.net, []netip.Addr{rootAddr}, anchor, ProfileCloudflare())
	r.Now = func() time.Time { return time.Unix(tNow, 0) }
	res := r.Resolve(context.Background(), dnswire.MustName("glueless.example-b.com"), dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeNoError || len(res.Msg.Answer) == 0 {
		t.Fatalf("glueless resolution: rcode=%s answers=%d conditions=%v",
			res.Msg.RCode, len(res.Msg.Answer), res.Conditions)
	}
}

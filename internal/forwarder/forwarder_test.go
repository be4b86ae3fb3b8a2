package forwarder

import (
	"context"
	"errors"
	"slices"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/testbed"
)

type stubUpstream struct {
	resp *dnswire.Message
	err  error
}

func (s stubUpstream) Exchange(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) (*dnswire.Message, error) {
	return s.resp, s.err
}

func upstreamWithEDE() stubUpstream {
	m := &dnswire.Message{Response: true, RCode: dnswire.RCodeServFail,
		Question: []dnswire.Question{{Name: dnswire.MustName("x.example"), Type: dnswire.TypeA, Class: dnswire.ClassIN}}}
	m.AddEDE(9, "no SEP matching the DS found for x.example.")
	m.AddEDE(23, "192.0.2.1:53 rcode=REFUSED for x.example A")
	return stubUpstream{resp: m}
}

func TestForwardsEDEVerbatim(t *testing.T) {
	f := New(upstreamWithEDE())
	q := dnswire.NewQuery(7, dnswire.MustName("x.example"), dnswire.TypeA)
	resp, err := f.HandleDNS(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 7 {
		t.Errorf("ID = %d (must match the client, not the upstream)", resp.ID)
	}
	edes := resp.EDEs()
	if len(edes) != 2 || edes[0].InfoCode != 9 || edes[1].InfoCode != 23 {
		t.Fatalf("EDEs = %v", edes)
	}
	if edes[0].ExtraText == "" {
		t.Error("EXTRA-TEXT stripped in forwarding")
	}
}

func TestNoEDNSClientGetsNoOptions(t *testing.T) {
	f := New(upstreamWithEDE())
	q := dnswire.NewQuery(9, dnswire.MustName("x.example"), dnswire.TypeA)
	q.OPT = nil // pre-EDNS stub
	resp, err := f.HandleDNS(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OPT != nil {
		t.Error("OPT added for a non-EDNS client")
	}
}

func TestAnnotatesUpstreamFailure(t *testing.T) {
	f := New(stubUpstream{err: errors.New("down")})
	q := dnswire.NewQuery(10, dnswire.MustName("x.example"), dnswire.TypeA)
	resp, err := f.HandleDNS(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeServFail {
		t.Errorf("rcode = %s", resp.RCode)
	}
	codes := resp.EDECodes()
	if len(codes) != 1 || codes[0] != 23 {
		t.Errorf("codes = %v, want the forwarder's own Network Error", codes)
	}
}

// TestEndToEndThroughTestbed chains stub → forwarder → validating resolver →
// the paper's testbed, checking the EDE arrives intact across the extra hop.
func TestEndToEndThroughTestbed(t *testing.T) {
	tb, err := testbed.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := tb.NewResolver(resolver.ProfileCloudflare())
	f := New(ResolverUpstream{R: r})

	q := dnswire.NewQuery(11, testbed.ParentZone.Child("rrsig-exp-all"), dnswire.TypeA)
	resp, err := f.HandleDNS(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %s", resp.RCode)
	}
	codes := resp.EDECodes()
	if len(codes) != 1 || codes[0] != 7 {
		t.Errorf("codes = %v, want [7] through the forwarder", codes)
	}
}

// TestClientReheadCannotCorruptUpstream pins the anti-aliasing contract: the
// forwarder hands each client copies of the upstream's RR slices, so a
// client-side mutation (re-heading, TTL rewrites) cannot reach a cache
// sitting behind the forwarder.
func TestClientReheadCannotCorruptUpstream(t *testing.T) {
	up := &dnswire.Message{Response: true, RCode: dnswire.RCodeNoError,
		Question: []dnswire.Question{{Name: dnswire.MustName("x.example"), Type: dnswire.TypeA, Class: dnswire.ClassIN}},
		Answer: []dnswire.RR{{Name: dnswire.MustName("x.example"), Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.TXT{Strings: []string{"cached"}}}}}
	f := New(stubUpstream{resp: up})
	q := dnswire.NewQuery(9, dnswire.MustName("x.example"), dnswire.TypeA)
	resp, err := f.HandleDNS(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	resp.Answer[0].TTL = 1
	resp.Answer = append(resp.Answer[:0], resp.Answer...) // re-head in place
	if up.Answer[0].TTL != 300 {
		t.Fatalf("client mutation reached the upstream message: TTL = %d", up.Answer[0].TTL)
	}
}

// TestStandaloneResolverServesNoStaleError: a resolver serving on its own
// (New over ResolverUpstream) caches a lame domain's
// SERVFAIL for ErrorTTL and answers repeats from it with EDE 13. Once that
// entry has expired and the retry fails too, the answer is the retry's own
// failure, EDE 22 and 23, and not the expired error served as stale (EDE 3):
// RFC 8767 serves stale data, and a SERVFAIL is not data.
func TestStandaloneResolverServesNoStaleError(t *testing.T) {
	w, err := population.Materialize(population.Generate(population.Config{TotalDomains: 3030, Seed: 20230515}))
	if err != nil {
		t.Fatal(err)
	}
	r := resolver.New(w.Net, w.Roots, w.Anchor, resolver.ProfileCloudflare())
	r.Now = w.Now
	f := New(ResolverUpstream{R: r})
	var name dnswire.Name
	for _, d := range w.Pop.Domains {
		if d.Class == population.ClassLameRefused {
			name = d.Name
			break
		}
	}
	ask := func(step string, want ...uint16) {
		t.Helper()
		resp, err := f.HandleDNS(context.Background(), dnswire.NewQuery(12, name, dnswire.TypeA))
		if err != nil {
			t.Fatal(err)
		}
		codes := resp.EDECodes()
		slices.Sort(codes)
		if resp.RCode != dnswire.RCodeServFail || !slices.Equal(codes, want) {
			t.Errorf("%s: %s %v; want SERVFAIL %v", step, resp.RCode, codes, want)
		}
	}
	ask("first ask", 22, 23)
	ask("cached error", 13, 22, 23)
	w.SetClock(population.ScanTime + 31) // past the resolver's 30 s error cache
	ask("error entry expired, retry failed", 22, 23)
}

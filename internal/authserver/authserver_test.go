package authserver

import (
	"context"
	"net/netip"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/zone"
)

func testZone(t *testing.T) *zone.Zone {
	t.Helper()
	z := zone.New(dnswire.MustName("example.test"), 300)
	z.AddNS(dnswire.MustName("ns1.example.test"), netip.MustParseAddr("198.18.5.1"))
	z.AddAddress(dnswire.MustName("example.test"), netip.MustParseAddr("198.18.5.10"))
	z.AddAddress(dnswire.MustName("www.example.test"), netip.MustParseAddr("198.18.5.11"))
	if err := z.Sign(zone.SignOptions{Inception: 1700000000, Expiration: 1800000000}); err != nil {
		t.Fatal(err)
	}
	return z
}

func TestServerAnswers(t *testing.T) {
	s := New(testZone(t))
	q := dnswire.NewQuery(1, dnswire.MustName("www.example.test"), dnswire.TypeA)
	resp, err := s.HandleDNS(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Authoritative || resp.RCode != dnswire.RCodeNoError {
		t.Errorf("aa=%t rcode=%s", resp.Authoritative, resp.RCode)
	}
	var haveA, haveSig bool
	for _, rr := range resp.Answer {
		switch rr.Type() {
		case dnswire.TypeA:
			haveA = true
		case dnswire.TypeRRSIG:
			haveSig = true
		}
	}
	if !haveA || !haveSig {
		t.Errorf("answer missing A (%t) or RRSIG (%t) with DO set", haveA, haveSig)
	}
}

func TestServerOmitsDNSSECWithoutDO(t *testing.T) {
	s := New(testZone(t))
	q := dnswire.NewQuery(2, dnswire.MustName("www.example.test"), dnswire.TypeA)
	q.OPT.DO = false
	resp, err := s.HandleDNS(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range resp.Answer {
		if rr.Type() == dnswire.TypeRRSIG {
			t.Error("RRSIG included without DO")
		}
	}
}

func TestServerNXDomain(t *testing.T) {
	s := New(testZone(t))
	q := dnswire.NewQuery(3, dnswire.MustName("missing.example.test"), dnswire.TypeA)
	resp, err := s.HandleDNS(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %s", resp.RCode)
	}
}

// TestServerRefusesForeignNames: a name outside every zone the server holds
// is REFUSED, and so is every zone transfer: transfers are off, so an AXFR
// question gets no records even for a held zone's apex.
func TestServerRefusesForeignNames(t *testing.T) {
	s := New(testZone(t))
	q := dnswire.NewQuery(4, dnswire.MustName("elsewhere.invalid"), dnswire.TypeA)
	resp, err := s.HandleDNS(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %s", resp.RCode)
	}
	for _, name := range []string{"example.test", "www.example.test", "other.zone"} {
		q := dnswire.NewQuery(8, dnswire.MustName(name), dnswire.TypeAXFR)
		resp, err := s.HandleDNS(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.RCode != dnswire.RCodeRefused || resp.Authoritative || len(resp.Answer) != 0 {
			t.Errorf("AXFR %s: rcode=%s aa=%t records=%d, want REFUSED with none", name, resp.RCode, resp.Authoritative, len(resp.Answer))
		}
	}
}

func TestServerACL(t *testing.T) {
	for _, mode := range []ACLMode{ACLRefuseAll, ACLLocalhostOnly} {
		s := New(testZone(t))
		s.ACL = mode
		q := dnswire.NewQuery(5, dnswire.MustName("www.example.test"), dnswire.TypeA)
		resp, err := s.HandleDNS(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.RCode != dnswire.RCodeRefused {
			t.Errorf("mode %d: rcode = %s", mode, resp.RCode)
		}
	}
}

func TestServerOverNetsim(t *testing.T) {
	net_ := netsim.New(1)
	addr := netip.MustParseAddr("198.18.5.1")
	net_.Register(addr, New(testZone(t)))
	q := dnswire.NewQuery(6, dnswire.MustName("example.test"), dnswire.TypeA)
	resp, _, err := net_.Exchange(context.Background(), addr, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answer) == 0 {
		t.Error("no answer over netsim")
	}
	if st := net_.Stats(); st.Answered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNetsimUnroutableGlue(t *testing.T) {
	net_ := netsim.New(1)
	q := dnswire.NewQuery(7, dnswire.MustName("x.example"), dnswire.TypeA)
	_, _, err := net_.Exchange(context.Background(), netip.MustParseAddr("10.1.2.3"), q)
	if err != netsim.ErrTimeout {
		t.Errorf("err = %v, want timeout for private address", err)
	}
	if st := net_.Stats(); st.Unroutable != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBehaviourHandlers(t *testing.T) {
	ctx := context.Background()
	q := dnswire.NewQuery(10, dnswire.MustName("x.example"), dnswire.TypeA)

	if _, err := netsim.Unresponsive().HandleDNS(ctx, q); err == nil {
		t.Error("Unresponsive answered")
	}
	resp, err := netsim.StaticRCode(dnswire.RCodeRefused).HandleDNS(ctx, q)
	if err != nil || resp.RCode != dnswire.RCodeRefused {
		t.Errorf("StaticRCode: %v %v", resp, err)
	}
	resp, err = netsim.NoEDNS(New(testZone(t))).HandleDNS(ctx,
		dnswire.NewQuery(11, dnswire.MustName("example.test"), dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.OPT != nil {
		t.Error("NoEDNS left OPT in response")
	}
	resp, err = netsim.MismatchedQuestion(New(testZone(t))).HandleDNS(ctx,
		dnswire.NewQuery(12, dnswire.MustName("example.test"), dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Question[0].Name == dnswire.MustName("example.test") {
		t.Error("MismatchedQuestion did not rewrite question")
	}
}

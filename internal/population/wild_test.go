package population

import (
	"context"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

func smallWild(t *testing.T) *Wild {
	t.Helper()
	pop := Generate(Config{TotalDomains: 1515, Seed: 77})
	w, err := Materialize(pop)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestMaterializeRegistersInfrastructure(t *testing.T) {
	w := smallWild(t)
	if len(w.Roots) != 1 || len(w.Anchor) != 1 {
		t.Fatalf("roots=%d anchor=%d", len(w.Roots), len(w.Anchor))
	}
	// Every domain must be indexed.
	for _, d := range w.Pop.Domains[:50] {
		if got, ok := w.Pop.Lookup(d.Name); !ok || got != d {
			t.Fatalf("index missing %s", d.Name)
		}
	}
	if _, ok := w.Pop.Lookup(dnswire.MustName("absent.zzz")); ok {
		t.Error("index returned a nonexistent domain")
	}
}

// TestWildClock: the clock starts at ScanTime and SetClock sets it. A
// stale-class domain's authority answers every query before MeasureTime and
// none from it on, however often it was asked before, and comes back when
// the clock is set back: what a pass sees depends on the instants it sets,
// not on the passes that ran before it.
func TestWildClock(t *testing.T) {
	w := smallWild(t)
	if got := w.Now().Unix(); got != int64(ScanTime) {
		t.Fatalf("a new wild's clock reads %d, want ScanTime %d", got, ScanTime)
	}
	var stale *Domain
	for _, d := range w.Pop.Domains {
		if d.Class == ClassStale {
			stale = d
			break
		}
	}
	if stale == nil {
		t.Fatal("no stale-class domain")
	}
	q := dnswire.NewQuery(1, stale.Name, dnswire.TypeA)
	for i, step := range []struct {
		at     uint32
		answer bool
	}{
		{ScanTime, true}, {ScanTime, true}, {MeasureTime - 1, true},
		{MeasureTime, false}, {MeasureTime, false}, {ScanTime, true},
	} {
		w.SetClock(step.at)
		if got := w.Now().Unix(); got != int64(step.at) {
			t.Fatalf("step %d: SetClock(%d), clock reads %d", i, step.at, got)
		}
		resp, _, err := w.Net.Exchange(context.Background(), w.nsAddrsFor(stale)[0], q)
		answered := err == nil && resp.RCode == dnswire.RCodeNoError && len(resp.Answer) > 0
		if answered != step.answer {
			t.Errorf("step %d at %+ds: answered %t (%v), want %t", i, int64(step.at)-int64(ScanTime), answered, err, step.answer)
		}
	}
}

func TestWarmupDomainsAreStaleClass(t *testing.T) {
	w := smallWild(t)
	warm := w.WarmupDomains()
	if len(warm) == 0 {
		t.Fatal("no warmup domains")
	}
	for _, name := range warm {
		d, ok := w.Pop.Lookup(name)
		if !ok || d.Class != ClassStale {
			t.Errorf("%s: class %v", name, d.Class)
		}
	}
}

func TestTLDServerReferral(t *testing.T) {
	w := smallWild(t)
	var healthy *Domain
	for _, d := range w.Pop.Domains {
		if d.Class == ClassHealthy && !d.TLD.special() {
			healthy = d
			break
		}
	}
	if healthy == nil {
		t.Fatal("no healthy domain")
	}
	q := dnswire.NewQuery(1, healthy.Name, dnswire.TypeA)
	resp, _, err := w.Net.Exchange(context.Background(), healthy.TLD.Addr, q)
	if err != nil {
		t.Fatal(err)
	}
	var ns, proof int
	for _, rr := range resp.Authority {
		switch rr.Type() {
		case dnswire.TypeNS:
			ns++
		case dnswire.TypeNSEC3, dnswire.TypeNSEC:
			proof++
		}
	}
	if ns == 0 || len(resp.Additional) == 0 {
		t.Errorf("referral: ns=%d glue=%d", ns, len(resp.Additional))
	}
	if proof == 0 {
		t.Error("unsigned delegation referral lacks the insecure proof")
	}
}

func TestTLDServerDNSKEY(t *testing.T) {
	w := smallWild(t)
	tld := w.Pop.TLDs[0]
	q := dnswire.NewQuery(2, tld.Name, dnswire.TypeDNSKEY)
	resp, _, err := w.Net.Exchange(context.Background(), tld.Addr, q)
	if err != nil {
		t.Fatal(err)
	}
	var keys, sigs int
	for _, rr := range resp.Answer {
		switch rr.Type() {
		case dnswire.TypeDNSKEY:
			keys++
		case dnswire.TypeRRSIG:
			sigs++
		}
	}
	if keys < 2 || sigs < 2 {
		t.Errorf("DNSKEY answer: keys=%d sigs=%d", keys, sigs)
	}
	// The response must be cached: a second query returns the same set.
	resp2, _, err := w.Net.Exchange(context.Background(), tld.Addr, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Answer) != len(resp.Answer) {
		t.Error("DNSKEY answer not stable across queries")
	}
}

func TestTLDServerStandbyPublishesExtraKSK(t *testing.T) {
	w := smallWild(t)
	var standby *TLD
	for _, tld := range w.Pop.TLDs {
		if tld.Standby {
			standby = tld
			break
		}
	}
	if standby == nil {
		t.Fatal("no standby TLD")
	}
	q := dnswire.NewQuery(3, standby.Name, dnswire.TypeDNSKEY)
	resp, _, err := w.Net.Exchange(context.Background(), standby.Addr, q)
	if err != nil {
		t.Fatal(err)
	}
	sep := 0
	signedBy := map[uint16]bool{}
	var seps []dnswire.DNSKEY
	for _, rr := range resp.Answer {
		switch d := rr.Data.(type) {
		case dnswire.DNSKEY:
			if d.IsSEP() {
				sep++
				seps = append(seps, d)
			}
		case dnswire.RRSIG:
			signedBy[d.KeyTag] = true
		}
	}
	if sep != 2 {
		t.Fatalf("SEP keys = %d, want active + standby", sep)
	}
	unsigned := 0
	for _, k := range seps {
		if !signedBy[k.KeyTag()] {
			unsigned++
		}
	}
	if unsigned != 1 {
		t.Errorf("stand-by keys without covering RRSIG = %d, want 1", unsigned)
	}
}

func TestTLDServerRefusesForeign(t *testing.T) {
	w := smallWild(t)
	tld := w.Pop.TLDs[0]
	q := dnswire.NewQuery(4, dnswire.MustName("elsewhere.invalid"), dnswire.TypeA)
	resp, _, err := w.Net.Exchange(context.Background(), tld.Addr, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %s", resp.RCode)
	}
}

func TestTLDServerUnknownChildReferral(t *testing.T) {
	w := smallWild(t)
	tld := w.Pop.TLDs[0]
	q := dnswire.NewQuery(5, tld.Name.Child("never-registered"), dnswire.TypeA)
	resp, _, err := w.Net.Exchange(context.Background(), tld.Addr, q)
	if err != nil {
		t.Fatal(err)
	}
	// Unknown children still get a (provider-backed) referral; the
	// provider answers NXDOMAIN.
	hasNS := false
	for _, rr := range resp.Authority {
		if rr.Type() == dnswire.TypeNS {
			hasNS = true
		}
	}
	if !hasNS {
		t.Error("no referral for unknown child")
	}
}

func TestProviderServesSignedDomain(t *testing.T) {
	w := smallWild(t)
	var signed *Domain
	for _, d := range w.Pop.Domains {
		if d.Class == ClassHealthySigned {
			signed = d
			break
		}
	}
	if signed == nil {
		t.Skip("no healthy-signed domain at this seed")
	}
	addr := w.providerFor(signed)

	q := dnswire.NewQuery(6, signed.Name, dnswire.TypeA)
	resp, _, err := w.Net.Exchange(context.Background(), addr, q)
	if err != nil {
		t.Fatal(err)
	}
	var a, sig bool
	for _, rr := range resp.Answer {
		switch rr.Type() {
		case dnswire.TypeA:
			a = true
		case dnswire.TypeRRSIG:
			sig = true
		}
	}
	if !a || !sig {
		t.Errorf("signed answer: a=%t sig=%t", a, sig)
	}

	q = dnswire.NewQuery(7, signed.Name, dnswire.TypeDNSKEY)
	resp, _, err = w.Net.Exchange(context.Background(), addr, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answer) < 3 {
		t.Errorf("DNSKEY answer records = %d", len(resp.Answer))
	}
}

func TestChildOf(t *testing.T) {
	tld := dnswire.MustName("com")
	cases := []struct{ in, want string }{
		{"d1.com", "d1.com."},
		{"ns1.d1.com", "d1.com."},
		{"deep.ns1.d1.com", "d1.com."},
		{`x\.y.d1.com`, "d1.com."},
		// Not below com at all: handed back, and no domain is indexed under it.
		{`x\.com`, `x\.com.`},
	}
	for _, c := range cases {
		if got := childOf(dnswire.MustName(c.in), tld); string(got) != c.want {
			t.Errorf("childOf(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestWindowFor(t *testing.T) {
	for _, c := range []struct {
		w    SigWindow
		past bool
	}{{WindowValid, false}, {WindowExpired, true}, {WindowFuture, false}} {
		inc, exp := windowFor(c.w)
		if inc >= exp {
			t.Errorf("window %v: inception %d >= expiration %d", c.w, inc, exp)
		}
		if c.past && exp >= ScanTime {
			t.Errorf("expired window ends at %d, after scan time", exp)
		}
	}
}

// TestNSECDenialTLDsServeNSECProofs pins the denial-flavour split.
func TestNSECDenialTLDsServeNSECProofs(t *testing.T) {
	w := smallWild(t)
	var checked int
	for _, d := range w.Pop.Domains {
		if checked >= 2 || d.Class != ClassHealthy || !d.TLD.NSECDenial || d.TLD.special() {
			continue
		}
		checked++
		q := dnswire.NewQuery(9, d.Name, dnswire.TypeA)
		resp, _, err := w.Net.Exchange(context.Background(), d.TLD.Addr, q)
		if err != nil {
			t.Fatal(err)
		}
		var nsec, nsec3 int
		for _, rr := range resp.Authority {
			switch rr.Type() {
			case dnswire.TypeNSEC:
				nsec++
				// The white lie spells the canonical successor by hand.
				if next := rr.Data.(dnswire.NSEC).NextName; rr.Name != d.Name || next != d.Name.Child("\000") {
					t.Errorf("NSEC %s → %s, want %s → its canonical successor", rr.Name, next, d.Name)
				}
			case dnswire.TypeNSEC3:
				nsec3++
			}
		}
		if nsec == 0 || nsec3 != 0 {
			t.Errorf("%s: nsec=%d nsec3=%d, want plain NSEC proof", d.Name, nsec, nsec3)
		}
	}
	if checked == 0 {
		t.Skip("no healthy domain under an NSEC TLD at this seed")
	}

}

func TestClassStrings(t *testing.T) {
	for c := ClassHealthy; c < numClasses; c++ {
		if s := c.String(); s == "" || s[0] == 'C' {
			t.Errorf("class %d unnamed: %q", int(c), s)
		}
	}
}

package zone

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"

	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

const (
	inception  = 1700000000
	expiration = 1800000000
	now        = 1750000000
)

func signedZone(t *testing.T) *Zone {
	t.Helper()
	z := New(dnswire.MustName("example.com"), 300)
	z.AddNS(dnswire.MustName("ns1.example.com"), netip.MustParseAddr("198.18.0.1"))
	z.AddAddress(dnswire.MustName("example.com"), netip.MustParseAddr("198.18.0.10"))
	z.AddAddress(dnswire.MustName("www.example.com"), netip.MustParseAddr("198.18.0.11"))
	z.AddDelegation(dnswire.MustName("child.example.com"), map[dnswire.Name][]netip.Addr{
		dnswire.MustName("ns1.child.example.com"): {netip.MustParseAddr("198.18.0.20")},
	})
	if err := z.Sign(SignOptions{Inception: inception, Expiration: expiration, NSEC3Salt: []byte{0xCA, 0xFE}}); err != nil {
		t.Fatal(err)
	}
	return z
}

func zoneKeys(z *Zone) []dnswire.DNSKEY {
	var keys []dnswire.DNSKEY
	for _, rr := range z.RRset(z.Origin, dnswire.TypeDNSKEY) {
		keys = append(keys, rr.Data.(dnswire.DNSKEY))
	}
	return keys
}

func TestSignedZoneAnswerValidates(t *testing.T) {
	z := signedZone(t)
	res := z.Lookup(dnswire.MustName("www.example.com"), dnswire.TypeA, true)
	if res.Kind != ResultAnswer {
		t.Fatalf("Kind = %v", res.Kind)
	}
	var set, sigs []dnswire.RR
	for _, rr := range res.Answer {
		if rr.Type() == dnswire.TypeRRSIG {
			sigs = append(sigs, rr)
		} else {
			set = append(set, rr)
		}
	}
	if len(set) != 1 || len(sigs) != 1 {
		t.Fatalf("answer %d records, %d sigs", len(set), len(sigs))
	}
	check := dnssec.CheckRRset(set, sigs, zoneKeys(z), now, dnssec.StandardSupport())
	if check.Status != dnssec.SigOK {
		t.Errorf("answer validation: %v", check.Status)
	}
}

func TestDNSKEYChainsToDS(t *testing.T) {
	z := signedZone(t)
	dsSet, err := z.DS(dnssec.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	keys := zoneKeys(z)
	m := dnssec.MatchDS(z.Origin, dsSet, keys, dnssec.StandardSupport())
	if !m.DigestMatch {
		t.Fatalf("DS does not match DNSKEY: %+v", m)
	}
	keyRRs := z.RRset(z.Origin, dnswire.TypeDNSKEY)
	sigs := z.Sigs(z.Origin, dnswire.TypeDNSKEY)
	if len(sigs) != 2 {
		t.Fatalf("DNSKEY RRset has %d sigs, want 2 (KSK+ZSK)", len(sigs))
	}
	check := dnssec.CheckRRset(keyRRs, sigs, []dnswire.DNSKEY{*m.MatchedKey}, now, dnssec.StandardSupport())
	if check.Status != dnssec.SigOK {
		t.Errorf("DNSKEY validation via DS-matched key: %v", check.Status)
	}
	if !check.VerifiedSEP {
		t.Error("DNSKEY RRset not verified by the SEP key")
	}
}

func TestReferralIncludesGlueAndDenial(t *testing.T) {
	z := signedZone(t)
	res := z.Lookup(dnswire.MustName("www.child.example.com"), dnswire.TypeA, true)
	if res.Kind != ResultReferral {
		t.Fatalf("Kind = %v", res.Kind)
	}
	var haveNS, haveNSEC3, haveGlue bool
	for _, rr := range res.Authority {
		switch rr.Type() {
		case dnswire.TypeNS:
			haveNS = true
		case dnswire.TypeNSEC3:
			haveNSEC3 = true
		}
	}
	for _, rr := range res.Additional {
		if rr.Type() == dnswire.TypeA {
			haveGlue = true
		}
	}
	if !haveNS || !haveGlue {
		t.Errorf("referral missing NS (%t) or glue (%t)", haveNS, haveGlue)
	}
	if !haveNSEC3 {
		t.Error("unsigned delegation referral missing NSEC3 no-DS proof")
	}
}

func TestNXDomainDenialProof(t *testing.T) {
	z := signedZone(t)
	res := z.Lookup(dnswire.MustName("nx.example.com"), dnswire.TypeA, true)
	if res.Kind != ResultNXDomain {
		t.Fatalf("Kind = %v", res.Kind)
	}
	var nsec3s []dnswire.RR
	soaSigned := false
	for _, rr := range res.Authority {
		if rr.Type() == dnswire.TypeNSEC3 {
			nsec3s = append(nsec3s, rr)
		}
		if sig, ok := rr.Data.(dnswire.RRSIG); ok && sig.TypeCovered == dnswire.TypeSOA {
			soaSigned = true
		}
	}
	if len(nsec3s) < 2 {
		t.Errorf("NXDOMAIN proof has %d NSEC3 records, want >= 2", len(nsec3s))
	}
	if !soaSigned {
		t.Error("SOA in NXDOMAIN response is unsigned")
	}
	// The closest encloser (apex) must be matched by one record.
	apexHash := dnssec.NSEC3Hash(z.Origin, z.NSEC3Params.Iterations, z.NSEC3Params.Salt)
	foundMatch := false
	for _, rr := range nsec3s {
		if rr.Name == z.Origin.Child(dnswire.Base32HexNoPad(apexHash)) {
			foundMatch = true
		}
	}
	if !foundMatch {
		t.Error("NXDOMAIN proof lacks closest-encloser match for apex")
	}
	// The next-closer must be covered by some record.
	nc := dnssec.NSEC3Hash(dnswire.MustName("nx.example.com"), z.NSEC3Params.Iterations, z.NSEC3Params.Salt)
	covered := false
	for _, rr := range nsec3s {
		rec := rr.Data.(dnswire.NSEC3)
		ownerHash := ownerHashOf(t, rr.Name)
		if dnssec.CoversHash(ownerHash, rec.NextHashed, nc) {
			covered = true
		}
	}
	if !covered {
		t.Error("next-closer name not covered by proof")
	}
}

func ownerHashOf(t *testing.T, owner dnswire.Name) []byte {
	t.Helper()
	labels := owner.Labels()
	if len(labels) == 0 {
		t.Fatal("bad NSEC3 owner")
	}
	h, err := dnswire.DecodeBase32Hex(labels[0])
	if err != nil {
		t.Fatalf("bad NSEC3 owner label %q: %v", labels[0], err)
	}
	return h
}

func TestNoDataDenial(t *testing.T) {
	z := signedZone(t)
	res := z.Lookup(dnswire.MustName("www.example.com"), dnswire.TypeMX, true)
	if res.Kind != ResultNoData {
		t.Fatalf("Kind = %v", res.Kind)
	}
	var nsec3 *dnswire.NSEC3
	for _, rr := range res.Authority {
		if rec, ok := rr.Data.(dnswire.NSEC3); ok {
			nsec3 = &rec
		}
	}
	if nsec3 == nil {
		t.Fatal("NODATA response lacks matching NSEC3")
	}
	for _, typ := range nsec3.Types {
		if typ == dnswire.TypeMX {
			t.Error("NODATA NSEC3 bitmap claims MX exists")
		}
	}
	hasA := false
	for _, typ := range nsec3.Types {
		if typ == dnswire.TypeA {
			hasA = true
		}
	}
	if !hasA {
		t.Error("NODATA NSEC3 bitmap missing existing A type")
	}
}

func TestDSQueryAtCutAnsweredByParent(t *testing.T) {
	z := signedZone(t)
	res := z.Lookup(dnswire.MustName("child.example.com"), dnswire.TypeDS, true)
	// child has no DS published -> NODATA with denial, answered by parent
	// (not a referral).
	if res.Kind == ResultReferral {
		t.Fatal("DS query at cut produced a referral")
	}
}

func TestNotZone(t *testing.T) {
	z := signedZone(t)
	if res := z.Lookup(dnswire.MustName("other.org"), dnswire.TypeA, true); res.Kind != ResultNotZone {
		t.Errorf("Kind = %v", res.Kind)
	}
}

func TestDenialModes(t *testing.T) {
	cases := []struct {
		mode       DenialMode
		wantSOA    bool
		wantSOASig bool
		wantNSEC3  bool
	}{
		{DenialNormal, true, true, true},
		{DenialOmitNSEC3, true, true, false},
		{DenialUnsignedSOA, true, false, false},
		{DenialBare, false, false, false},
	}
	for _, c := range cases {
		z := signedZone(t)
		z.DenialMode = c.mode
		if c.mode == DenialOmitNSEC3 {
			z.RemoveNSEC3Records()
		}
		res := z.Lookup(dnswire.MustName("nx.example.com"), dnswire.TypeA, true)
		var soa, soaSig, nsec3 bool
		for _, rr := range res.Authority {
			switch d := rr.Data.(type) {
			case dnswire.SOA:
				soa = true
			case dnswire.RRSIG:
				if d.TypeCovered == dnswire.TypeSOA {
					soaSig = true
				}
			case dnswire.NSEC3:
				nsec3 = true
			}
		}
		if soa != c.wantSOA || soaSig != c.wantSOASig || nsec3 != c.wantNSEC3 {
			t.Errorf("mode %d: soa=%t sig=%t nsec3=%t, want %t/%t/%t",
				c.mode, soa, soaSig, nsec3, c.wantSOA, c.wantSOASig, c.wantNSEC3)
		}
	}
}

func TestMutatorExpireSignatures(t *testing.T) {
	z := signedZone(t)
	if err := z.ResignAllWithWindow(inception-1000, inception-100); err != nil {
		t.Fatal(err)
	}
	set := z.RRset(dnswire.MustName("www.example.com"), dnswire.TypeA)
	sigs := z.Sigs(dnswire.MustName("www.example.com"), dnswire.TypeA)
	check := dnssec.CheckRRset(set, sigs, zoneKeys(z), now, dnssec.StandardSupport())
	if check.Status != dnssec.SigExpired {
		t.Errorf("Status = %v, want SigExpired", check.Status)
	}
}

func TestMutatorCorruptSigs(t *testing.T) {
	z := signedZone(t)
	name := dnswire.MustName("www.example.com")
	if n := z.CorruptSigs(name, dnswire.TypeA, nil); n != 1 {
		t.Fatalf("corrupted %d sigs", n)
	}
	check := dnssec.CheckRRset(z.RRset(name, dnswire.TypeA), z.Sigs(name, dnswire.TypeA), zoneKeys(z), now, dnssec.StandardSupport())
	if check.Status != dnssec.SigCryptoFailed {
		t.Errorf("Status = %v, want SigCryptoFailed", check.Status)
	}
}

func TestMutatorRemoveZSK(t *testing.T) {
	z := signedZone(t)
	n, err := z.RemoveDNSKey(SelZSK, z.KSKs[0])
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("removed %d keys", n)
	}
	// Answer signature now references a missing key.
	name := dnswire.MustName("www.example.com")
	check := dnssec.CheckRRset(z.RRset(name, dnswire.TypeA), z.Sigs(name, dnswire.TypeA), zoneKeys(z), now, dnssec.StandardSupport())
	if check.Status != dnssec.SigNoMatchingKey {
		t.Errorf("Status = %v, want SigNoMatchingKey", check.Status)
	}
	// DNSKEY RRset still chains to DS.
	dsSet, _ := z.DS(dnssec.DigestSHA256)
	m := dnssec.MatchDS(z.Origin, dsSet, zoneKeys(z), dnssec.StandardSupport())
	if !m.DigestMatch {
		t.Error("DS no longer matches after ZSK removal")
	}
}

func TestMutatorGarbledNSEC3NoLongerProves(t *testing.T) {
	z := signedZone(t)
	if err := z.GarbleNSEC3Owners(); err != nil {
		t.Fatal(err)
	}
	res := z.Lookup(dnswire.MustName("nx.example.com"), dnswire.TypeA, true)
	apexHash := dnssec.NSEC3Hash(z.Origin, z.NSEC3Params.Iterations, z.NSEC3Params.Salt)
	for _, rr := range res.Authority {
		if rr.Type() != dnswire.TypeNSEC3 {
			continue
		}
		if rr.Name == z.Origin.Child(dnswire.Base32HexNoPad(apexHash)) {
			t.Fatal("garbled chain still matches apex hash")
		}
		// Signatures over garbled records must still verify (the zone was
		// re-signed): the proof is bogus, not forged.
		sigs := z.Sigs(rr.Name, dnswire.TypeNSEC3)
		check := dnssec.CheckRRset([]dnswire.RR{rr}, sigs, zoneKeys(z), now, dnssec.StandardSupport())
		if check.Status != dnssec.SigOK {
			t.Errorf("garbled NSEC3 signature invalid: %v", check.Status)
		}
	}
}

func TestMutatorSaltMismatch(t *testing.T) {
	z := signedZone(t)
	if err := z.SetNSEC3Salt([]byte{0xBA, 0xD0}); err != nil {
		t.Fatal(err)
	}
	salts := make(map[string]bool)
	for _, e := range z.nsec3Chain {
		for _, rr := range z.RRset(e.owner, dnswire.TypeNSEC3) {
			salts[string(rr.Data.(dnswire.NSEC3).Salt)] = true
		}
	}
	if len(salts) < 2 {
		t.Errorf("expected mixed salts across chain, got %d distinct", len(salts))
	}
}

func TestStandbyKSKPublished(t *testing.T) {
	z := New(dnswire.MustName("se."), 300)
	z.AddNS(dnswire.MustName("ns1.se"), netip.MustParseAddr("198.18.1.1"))
	if err := z.Sign(SignOptions{Inception: inception, Expiration: expiration, StandbyKSKs: 1}); err != nil {
		t.Fatal(err)
	}
	inv := dnssec.Inventory(zoneKeys(z), dnssec.StandardSupport())
	if inv.SEPKeys != 2 {
		t.Fatalf("SEP keys = %d, want 2 (active + standby)", inv.SEPKeys)
	}
	// Only the active KSK signs the DNSKEY RRset.
	sigs := z.Sigs(z.Origin, dnswire.TypeDNSKEY)
	tags := make(map[uint16]bool)
	for _, rr := range sigs {
		tags[rr.Data.(dnswire.RRSIG).KeyTag] = true
	}
	if tags[z.KSKs[1].KeyTag()] {
		t.Error("standby KSK signed the DNSKEY RRset")
	}
}

func TestLookupGlueNotAuthoritative(t *testing.T) {
	z := signedZone(t)
	// ns1.child.example.com is glue; a direct query must be a referral.
	res := z.Lookup(dnswire.MustName("ns1.child.example.com"), dnswire.TypeA, true)
	if res.Kind != ResultReferral {
		t.Errorf("glue query Kind = %v, want referral", res.Kind)
	}
}

// TestDenialChainCompletenessProperty probes random nonexistent names: the
// signed zone must always produce a denial proof that matches or covers
// them, under both NSEC3 and plain NSEC.
func TestDenialChainCompletenessProperty(t *testing.T) {
	for _, nsec := range []bool{false, true} {
		z := New(dnswire.MustName("prop.example"), 300)
		z.AddNS(dnswire.MustName("ns1.prop.example"), netip.MustParseAddr("198.18.8.1"))
		z.AddAddress(dnswire.MustName("www.prop.example"), netip.MustParseAddr("203.0.113.5"))
		z.AddAddress(dnswire.MustName("mail.prop.example"), netip.MustParseAddr("203.0.113.6"))
		if err := z.Sign(SignOptions{Inception: inception, Expiration: expiration, DenialNSEC: nsec}); err != nil {
			t.Fatal(err)
		}
		f := func(raw uint32) bool {
			label := fmt.Sprintf("x%d", raw%1000000)
			qname := z.Origin.Child(label)
			if z.HasName(qname) {
				return true
			}
			res := z.Lookup(qname, dnswire.TypeA, true)
			if res.Kind != ResultNXDomain {
				return false
			}
			proof := 0
			for _, rr := range res.Authority {
				if rr.Type() == dnswire.TypeNSEC3 || rr.Type() == dnswire.TypeNSEC {
					proof++
				}
			}
			return proof >= 1
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("nsec=%t: %v", nsec, err)
		}
	}
}

func TestNSECChainLinksAllNames(t *testing.T) {
	z := New(dnswire.MustName("chain.example"), 300)
	z.AddNS(dnswire.MustName("ns1.chain.example"), netip.MustParseAddr("198.18.8.2"))
	for i := 0; i < 8; i++ {
		z.AddAddress(dnswire.MustName(fmt.Sprintf("h%d.chain.example", i)), netip.MustParseAddr("203.0.113.7"))
	}
	if err := z.Sign(SignOptions{Inception: inception, Expiration: expiration, DenialNSEC: true}); err != nil {
		t.Fatal(err)
	}
	// Walk the chain from the apex: NextName pointers must visit every
	// authoritative name exactly once and return to the start.
	start := z.Origin
	seen := map[dnswire.Name]bool{}
	cur := start
	for i := 0; i < 64; i++ {
		if seen[cur] {
			t.Fatalf("chain revisits %s before completing", cur)
		}
		seen[cur] = true
		set := z.RRset(cur, dnswire.TypeNSEC)
		if len(set) != 1 {
			t.Fatalf("no NSEC at %s", cur)
		}
		cur = set[0].Data.(dnswire.NSEC).NextName
		if cur == start {
			break
		}
	}
	if cur != start {
		t.Fatal("chain did not close")
	}
	if len(seen) != len(z.nsecChain) {
		t.Errorf("chain visited %d names, index has %d", len(seen), len(z.nsecChain))
	}
}

// TestNSEC3ChainLinksManyOwners signs a zone the size of a small root (2,000
// owners besides the apex and its nameserver: 1,000 delegations with a DS,
// 1,000 hosts) and walks its NSEC3 chain: from the lowest hash, NextHashed must
// climb through every link exactly once and wrap back; every owner must find
// its own signed record, whose bitmap lists the owner's types.
func TestNSEC3ChainLinksManyOwners(t *testing.T) {
	z := New(dnswire.MustName("many.example"), 300)
	z.AddNS(dnswire.MustName("ns1.many.example"), netip.MustParseAddr("198.18.9.1"))
	want := map[dnswire.Name][]dnswire.Type{} // owner → the types its bitmap must carry
	for i := 0; i < 1000; i++ {
		child := z.Origin.Child(fmt.Sprintf("c%d", i))
		z.AddDelegation(child, map[dnswire.Name][]netip.Addr{dnswire.MustName("ns.elsewhere.example"): nil})
		z.AddDS(child, dnswire.DS{KeyTag: uint16(i), Algorithm: 15, DigestType: 2, Digest: []byte{byte(i)}})
		want[child] = []dnswire.Type{dnswire.TypeNS, dnswire.TypeDS}
		host := z.Origin.Child(fmt.Sprintf("h%d", i))
		z.AddAddress(host, netip.MustParseAddr("203.0.113.9"))
		want[host] = []dnswire.Type{dnswire.TypeA, dnswire.TypeRRSIG}
	}
	if err := z.Sign(SignOptions{Algorithm: dnssec.AlgED25519, Inception: inception, Expiration: expiration}); err != nil {
		t.Fatal(err)
	}
	if got := len(z.nsec3Chain); got != len(want)+2 {
		t.Fatalf("chain has %d links, want %d owners + the apex and its nameserver", got, len(want))
	}
	start := z.nsec3Chain[0].hash
	cur, seen := start, 0
	for {
		owner := z.Origin.Child(dnswire.Base32HexNoPad(cur))
		set := z.RRset(owner, dnswire.TypeNSEC3)
		if len(set) != 1 || len(z.Sigs(owner, dnswire.TypeNSEC3)) != 1 {
			t.Fatalf("link %d: %d NSEC3 records, %d signatures at %s", seen, len(set), len(z.Sigs(owner, dnswire.TypeNSEC3)), owner)
		}
		seen++
		next := set[0].Data.(dnswire.NSEC3).NextHashed
		if bytes.Equal(next, start) {
			break
		}
		if bytes.Compare(next, cur) <= 0 || seen > len(z.nsec3Chain) {
			t.Fatalf("link %d: next hash does not climb", seen)
		}
		cur = next
	}
	if seen != len(z.nsec3Chain) {
		t.Errorf("walk visited %d links, chain has %d", seen, len(z.nsec3Chain))
	}
	for name, types := range want {
		set, sigs, ok := z.NSEC3ForName(name)
		if !ok || len(set) != 1 || len(sigs) != 1 {
			t.Fatalf("%s: no signed NSEC3 of its own", name)
		}
		for _, typ := range types {
			if got := set[0].Data.(dnswire.NSEC3).Types; !slices.Contains(got, typ) {
				t.Errorf("%s: bitmap %v lacks %s", name, got, typ)
			}
		}
	}
	if _, _, ok := z.NSEC3ForName(z.Origin.Child("absent")); ok {
		t.Error("NSEC3ForName matched a name that owns nothing")
	}
}

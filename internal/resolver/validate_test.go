package resolver

import (
	"context"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

func mustKeyPair(t *testing.T, alg dnssec.Algorithm, flags uint16) *dnssec.KeyPair {
	t.Helper()
	k, err := dnssec.GenerateKey(alg, flags, 0)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestDSSupportGate(t *testing.T) {
	std := dnssec.StandardSupport()
	cf := dnssec.CloudflareSupport()
	ds := func(alg dnssec.Algorithm, digest dnssec.DigestType) dnswire.DS {
		return dnswire.DS{KeyTag: 1, Algorithm: uint8(alg), DigestType: uint8(digest), Digest: []byte{1}}
	}
	cases := []struct {
		name     string
		dsSet    []dnswire.DS
		sup      dnssec.SupportSet
		wantCond Condition
		gated    bool
	}{
		{"unassigned alg", []dnswire.DS{ds(dnssec.AlgUnassigned, dnssec.DigestSHA256)}, std, ConditionDSUnassignedAlg, true},
		{"reserved alg", []dnswire.DS{ds(dnssec.AlgReserved, dnssec.DigestSHA256)}, std, ConditionDSReservedAlg, true},
		{"unsupported digest", []dnswire.DS{ds(dnssec.AlgECDSAP256SHA256, dnssec.DigestUnassigned)}, std, ConditionDSUnsupportedDigest, true},
		{"gost digest", []dnswire.DS{ds(dnssec.AlgED25519, dnssec.DigestGOST)}, std, ConditionDSUnsupportedDigest, true},
		{"deprecated rsamd5", []dnswire.DS{ds(dnssec.AlgRSAMD5, dnssec.DigestSHA256)}, std, ConditionAlgDeprecated, true},
		{"deprecated dsa", []dnswire.DS{ds(dnssec.AlgDSA, dnssec.DigestSHA256)}, std, ConditionAlgDeprecated, true},
		{"ed448 under cloudflare", []dnswire.DS{ds(dnssec.AlgED448, dnssec.DigestSHA256)}, cf, ConditionAlgUnsupported, true},
		{"ed448 under standard", []dnswire.DS{ds(dnssec.AlgED448, dnssec.DigestSHA256)}, std, ConditionOK, false},
		{"normal ecdsa", []dnswire.DS{ds(dnssec.AlgECDSAP256SHA256, dnssec.DigestSHA256)}, std, ConditionOK, false},
		{"one usable among broken", []dnswire.DS{
			ds(dnssec.AlgUnassigned, dnssec.DigestSHA256),
			ds(dnssec.AlgECDSAP256SHA256, dnssec.DigestSHA256),
		}, std, ConditionOK, false},
	}
	for _, c := range cases {
		cond, _, gated := dsSupportGate(c.dsSet, c.sup)
		if gated != c.gated || (gated && cond != c.wantCond) {
			t.Errorf("%s: cond=%v gated=%t, want %v/%t", c.name, cond, gated, c.wantCond, c.gated)
		}
	}
}

func TestStandbyKSKDetection(t *testing.T) {
	active := mustKeyPair(t, dnssec.AlgED25519, 257)
	standby := mustKeyPair(t, dnssec.AlgED25519, 257)
	zsk := mustKeyPair(t, dnssec.AlgED25519, 256)
	owner := dnswire.MustName("tld.")
	keys := []dnswire.DNSKEY{active.DNSKEY(), standby.DNSKEY(), zsk.DNSKEY()}
	keyRRs := make([]dnswire.RR, len(keys))
	for i, k := range keys {
		keyRRs[i] = dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 300, Data: k}
	}
	sig, err := dnssec.SignRRset(keyRRs, active, owner, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	tag, found := standbyKSKWithoutSig(keys, []dnswire.RR{sig})
	if !found || tag != standby.KeyTag() {
		t.Errorf("found=%t tag=%d, want standby %d", found, tag, standby.KeyTag())
	}

	// With both KSKs signing, no advisory.
	sig2, err := dnssec.SignRRset(keyRRs, standby, owner, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, found := standbyKSKWithoutSig(keys, []dnswire.RR{sig, sig2}); found {
		t.Error("advisory raised though every SEP key signs")
	}
}

func TestClassifyMissingKey(t *testing.T) {
	ksk := mustKeyPair(t, dnssec.AlgECDSAP256SHA256, 257)
	sigRR := dnswire.RR{Name: dnswire.MustName("z.example"), Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.RRSIG{TypeCovered: dnswire.TypeA, Algorithm: uint8(dnssec.AlgECDSAP256SHA256), KeyTag: 12345}}
	sigs := []dnswire.RR{sigRR}
	st := &resolution{r: &Resolver{Profile: ProfileCloudflare()}, details: map[Condition]string{}}

	mk := func(alg dnssec.Algorithm, flags uint16) dnswire.DNSKEY {
		k := mustKeyPair(t, dnssec.AlgECDSAP256SHA256, flags).DNSKEY()
		k.Algorithm = uint8(alg)
		return k
	}

	cases := []struct {
		name string
		keys []dnswire.DNSKEY
		want Condition
	}{
		{"zone bit cleared", []dnswire.DNSKEY{ksk.DNSKEY(), mk(dnssec.AlgECDSAP256SHA256, 0)}, ConditionNoZoneBitZSK},
		{"unassigned algo", []dnswire.DNSKEY{ksk.DNSKEY(), mk(dnssec.AlgUnassigned, 256)}, ConditionUnassignedZSKAlgo},
		{"reserved algo", []dnswire.DNSKEY{ksk.DNSKEY(), mk(dnssec.AlgReserved, 256)}, ConditionReservedZSKAlgo},
		{"no zsk at all", []dnswire.DNSKEY{ksk.DNSKEY()}, ConditionNoZSK},
		{"algo mismatch", []dnswire.DNSKEY{ksk.DNSKEY(), mk(dnssec.AlgECDSAP384SHA384, 256)}, ConditionBadZSKAlgo},
		{"plain wrong key", []dnswire.DNSKEY{ksk.DNSKEY(), mk(dnssec.AlgECDSAP256SHA256, 256)}, ConditionBadZSK},
	}
	for _, c := range cases {
		if got := st.classifyMissingKey(sigs, c.keys); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCollectNSEC3(t *testing.T) {
	owner := dnswire.MustName("hash1.example")
	rec := dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.NSEC3{HashAlg: 1, NextHashed: []byte{1}, Types: []dnswire.Type{dnswire.TypeNS}}}
	sig := dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.RRSIG{TypeCovered: dnswire.TypeNSEC3}}
	soaSig := dnswire.RR{Name: dnswire.MustName("example"), Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.RRSIG{TypeCovered: dnswire.TypeSOA}}

	groups, bad := collectProofs([]dnswire.RR{rec, sig, soaSig}, dnswire.TypeNSEC3)
	if bad || len(groups) != 1 {
		t.Fatalf("groups=%d bad=%t", len(groups), bad)
	}
	if len(groups[0].set) != 1 || len(groups[0].sigs) != 1 {
		t.Errorf("group = %+v", groups[0])
	}

	// An NSEC3 RRSIG without its record flags the response.
	orphan := dnswire.RR{Name: dnswire.MustName("other.example"), Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.RRSIG{TypeCovered: dnswire.TypeNSEC3}}
	_, bad = collectProofs([]dnswire.RR{orphan}, dnswire.TypeNSEC3)
	if !bad {
		t.Error("orphan NSEC3 RRSIG not flagged")
	}
}

// TestValidateDenialBranches drives validateDenial with hand-built negative
// responses covering every group-4 condition.
func TestValidateDenialBranches(t *testing.T) {
	zoneName := dnswire.MustName("t.example")
	zsk := mustKeyPair(t, dnssec.AlgED25519, 256)
	keys := []dnswire.DNSKEY{zsk.DNSKEY()}
	qname := zoneName.Child("nx")
	now := uint32(1750000000)

	soa := dnswire.RR{Name: zoneName, Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.SOA{MName: zoneName, RName: zoneName, Serial: 1}}
	soaSig, err := dnssec.SignRRset([]dnswire.RR{soa}, zsk, zoneName, now-100, now+100)
	if err != nil {
		t.Fatal(err)
	}
	// A matching NSEC3 for the apex plus covers for next-closer and
	// wildcard (a correct proof uses consistent parameters).
	buildNSEC3 := func(target dnswire.Name, match bool, salt []byte, signed, corruptSig bool) []dnswire.RR {
		h := dnssec.NSEC3Hash(target, 0, salt)
		owner := h
		if !match {
			// A cover record spanning the whole hash space: owner 00…00,
			// next FF…FF covers every hash except the extremes.
			owner = make([]byte, len(h))
		}
		next := make([]byte, len(h))
		for i := range next {
			next[i] = 0xFF
		}
		rec := dnswire.RR{Name: zoneName.Child(dnswire.Base32HexNoPad(owner)), Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.NSEC3{HashAlg: 1, Salt: salt, NextHashed: next, Types: []dnswire.Type{dnswire.TypeA}}}
		out := []dnswire.RR{rec}
		if signed {
			sig, err := dnssec.SignRRset([]dnswire.RR{rec}, zsk, zoneName, now-100, now+100)
			if err != nil {
				t.Fatal(err)
			}
			if corruptSig {
				data := sig.Data.(dnswire.RRSIG)
				data.Signature = append([]byte(nil), data.Signature...)
				data.Signature[0] ^= 0xFF
				sig.Data = data
			}
			out = append(out, sig)
		}
		return out
	}

	newState := func() *resolution {
		r := New(nil, nil, nil, ProfileCloudflare())
		r.Now = func() time.Time { return time.Unix(int64(now), 0) }
		return &resolution{r: r, ctx: context.Background(), details: map[Condition]string{}}
	}
	msg := func(auth ...[]dnswire.RR) *dnswire.Message {
		m := &dnswire.Message{Response: true, RCode: dnswire.RCodeNXDomain}
		for _, rrs := range auth {
			m.Authority = append(m.Authority, rrs...)
		}
		return m
	}

	t.Run("bare", func(t *testing.T) {
		st := newState()
		st.validateDenial(msg(), zoneName, keys, qname, true)
		if len(st.conds) != 1 || st.conds[0] != ConditionDenialBare {
			t.Errorf("conds = %v", st.conds)
		}
	})
	t.Run("unsigned soa", func(t *testing.T) {
		st := newState()
		st.validateDenial(msg([]dnswire.RR{soa}), zoneName, keys, qname, true)
		if len(st.conds) != 1 || st.conds[0] != ConditionDenialUnsignedSOA {
			t.Errorf("conds = %v", st.conds)
		}
	})
	t.Run("no nsec3", func(t *testing.T) {
		st := newState()
		st.validateDenial(msg([]dnswire.RR{soa, soaSig}), zoneName, keys, qname, true)
		if len(st.conds) != 1 || st.conds[0] != ConditionNSEC3Missing {
			t.Errorf("conds = %v", st.conds)
		}
	})
	t.Run("salt mismatch", func(t *testing.T) {
		st := newState()
		st.validateDenial(msg([]dnswire.RR{soa, soaSig},
			buildNSEC3(zoneName, true, nil, true, false),
			buildNSEC3(qname, false, []byte{0xBA, 0xAD}, true, false),
		), zoneName, keys, qname, true)
		if len(st.conds) != 1 || st.conds[0] != ConditionNSEC3ParamMismatch {
			t.Errorf("conds = %v", st.conds)
		}
	})
	t.Run("unsigned nsec3", func(t *testing.T) {
		st := newState()
		st.validateDenial(msg([]dnswire.RR{soa, soaSig},
			buildNSEC3(zoneName, true, nil, false, false),
		), zoneName, keys, qname, true)
		if len(st.conds) != 1 || st.conds[0] != ConditionNSEC3RRSIGMissing {
			t.Errorf("conds = %v", st.conds)
		}
	})
	t.Run("bad rrsig", func(t *testing.T) {
		st := newState()
		st.validateDenial(msg([]dnswire.RR{soa, soaSig},
			buildNSEC3(zoneName, true, nil, true, true),
		), zoneName, keys, qname, true)
		if len(st.conds) != 1 || st.conds[0] != ConditionNSEC3BadRRSIG {
			t.Errorf("conds = %v", st.conds)
		}
	})
	t.Run("no closest encloser", func(t *testing.T) {
		st := newState()
		st.validateDenial(msg([]dnswire.RR{soa, soaSig},
			buildNSEC3(dnswire.MustName("unrelated.other"), true, nil, true, false),
		), zoneName, keys, qname, true)
		if len(st.conds) != 1 || st.conds[0] != ConditionNSEC3BadHash {
			t.Errorf("conds = %v", st.conds)
		}
	})
	t.Run("valid proof", func(t *testing.T) {
		st := newState()
		// Matching apex + a cover spanning everything else.
		st.validateDenial(msg([]dnswire.RR{soa, soaSig},
			buildNSEC3(zoneName, true, nil, true, false),
			buildNSEC3(qname, false, nil, true, false),
		), zoneName, keys, qname, true)
		if len(st.conds) != 0 {
			t.Errorf("conds = %v, want none", st.conds)
		}
	})
}

func TestUnsupportedDetailStrings(t *testing.T) {
	cfSup := dnssec.CloudflareSupport()
	weak, err := dnssec.GenerateKey(dnssec.AlgRSASHA256, 257, 512)
	if err != nil {
		t.Fatal(err)
	}
	if got := unsupportedDetail(dnssec.RRsetCheck{}, weak.DNSKEY(), cfSup); got != "unsupported key size" {
		t.Errorf("weak RSA detail = %q", got)
	}
	gost := dnssec.RRsetCheck{UnsupportedAlgs: []dnssec.Algorithm{dnssec.AlgECCGOST}}
	strong, err := dnssec.GenerateKey(dnssec.AlgED25519, 257, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := unsupportedDetail(gost, strong.DNSKEY(), cfSup); got != "unsupported DNSKEY algorithm GOST R 34.10-2001" {
		t.Errorf("GOST detail = %q", got)
	}
	ed := dnssec.RRsetCheck{UnsupportedAlgs: []dnssec.Algorithm{dnssec.AlgED448}}
	if got := unsupportedDetail(ed, strong.DNSKEY(), cfSup); got != "unsupported DNSKEY algorithm Ed448" {
		t.Errorf("Ed448 detail = %q", got)
	}
	if got := unsupportedDetail(dnssec.RRsetCheck{}, strong.DNSKEY(), dnssec.StandardSupport()); got != "no supported DNSKEY algorithm" {
		t.Errorf("fallback detail = %q", got)
	}

	if got := unsupportedAnswerDetail(dnssec.RRsetCheck{}, []dnswire.DNSKEY{weak.DNSKEY()}, cfSup); got != "unsupported key size" {
		t.Errorf("answer weak detail = %q", got)
	}
	if got := unsupportedAnswerDetail(gost, []dnswire.DNSKEY{strong.DNSKEY()}, cfSup); got == "" {
		t.Error("answer GOST detail empty")
	}
}

// A 32-byte Ed25519 or GOST public key whose first octet is 1–4 also parses
// as an RSA key (exponent length, exponent, a modulus of under 256 bits).
// The key's algorithm, not its bytes, decides whether the size floor applies:
// such a key is an unsupported algorithm, never an "unsupported key size".
func TestUnsupportedDetailIgnoresRSAShapedNonRSAKeys(t *testing.T) {
	pub := make([]byte, 32)
	pub[0], pub[1] = 1, 3 // RSA wire form: one exponent octet, e = 3
	for i := 2; i < len(pub); i++ {
		pub[i] = 0xA5
	}
	if bits := dnssec.RSAKeyBits(pub); bits == 0 || bits >= 1024 {
		t.Fatalf("crafted key reads as %d RSA bits; the test needs it to parse as a short RSA key", bits)
	}
	cfSup := dnssec.CloudflareSupport()
	for _, c := range []struct {
		alg  dnssec.Algorithm
		want string
	}{
		{dnssec.AlgECCGOST, "unsupported DNSKEY algorithm GOST R 34.10-2001"},
		{dnssec.AlgED448, "unsupported DNSKEY algorithm Ed448"},
	} {
		key := dnswire.DNSKEY{Flags: 257, Protocol: 3, Algorithm: uint8(c.alg), PublicKey: pub}
		chk := dnssec.RRsetCheck{Status: dnssec.SigUnsupportedAlg, UnsupportedAlgs: []dnssec.Algorithm{c.alg}}
		if got := unsupportedDetail(chk, key, cfSup); got != c.want {
			t.Errorf("%s key-establishment detail = %q, want %q", c.alg, got, c.want)
		}
		want := "unsupported DNSKEY algorithm " + c.alg.String()
		if got := unsupportedAnswerDetail(chk, []dnswire.DNSKEY{key}, cfSup); got != want {
			t.Errorf("%s answer detail = %q, want %q", c.alg, got, want)
		}
	}
	// The same bytes under an RSA algorithm number are a short RSA key.
	rsa := dnswire.DNSKEY{Flags: 257, Protocol: 3, Algorithm: uint8(dnssec.AlgRSASHA256), PublicKey: pub}
	if got := unsupportedDetail(dnssec.RRsetCheck{}, rsa, cfSup); got != "unsupported key size" {
		t.Errorf("RSA detail = %q", got)
	}
}

func TestCacheLenAndFlush(t *testing.T) {
	c := NewCache()
	c.putAnswer(cacheKey{name: dnswire.MustName("a.example"), qtype: dnswire.TypeA},
		&cachedAnswer{rcode: dnswire.RCodeNoError}, time.Unix(0, 0), time.Hour)
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	c.Flush()
	if c.Len() != 0 {
		t.Errorf("Len after Flush = %d", c.Len())
	}
}

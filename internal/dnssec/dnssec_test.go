package dnssec

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

const (
	testInception  = 1700000000
	testExpiration = 1800000000
	testNow        = 1750000000
)

func testRRset(owner string) []dnswire.RR {
	return []dnswire.RR{
		{Name: dnswire.MustName(owner), Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.10")}},
		{Name: dnswire.MustName(owner), Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.11")}},
	}
}

func mustKey(t *testing.T, alg Algorithm, flags uint16, bits int) *KeyPair {
	t.Helper()
	k, err := GenerateKey(alg, flags, bits)
	if err != nil {
		t.Fatalf("GenerateKey(%s): %v", alg, err)
	}
	return k
}

func signSet(t *testing.T, rrs []dnswire.RR, key *KeyPair, signer string) dnswire.RR {
	t.Helper()
	sig, err := SignRRset(rrs, key, dnswire.MustName(signer), testInception, testExpiration)
	if err != nil {
		t.Fatalf("SignRRset: %v", err)
	}
	return sig
}

func TestSignVerifyAllRealAlgorithms(t *testing.T) {
	algs := []struct {
		alg  Algorithm
		bits int
	}{
		{AlgRSASHA1, 1024},
		{AlgRSASHA1NSEC3SHA1, 1024},
		{AlgRSASHA256, 1024},
		{AlgRSASHA256, 512}, // weak key, must still sign/verify (RFC 5702 allows)
		{AlgRSASHA512, 1024},
		{AlgECDSAP256SHA256, 0},
		{AlgECDSAP384SHA384, 0},
		{AlgED25519, 0},
	}
	for _, c := range algs {
		key := mustKey(t, c.alg, 256, c.bits)
		rrs := testRRset("www.example.com")
		sigRR := signSet(t, rrs, key, "example.com")
		sig := sigRR.Data.(dnswire.RRSIG)
		if err := VerifyRRSIG(sig, rrs, key.DNSKEY()); err != nil {
			t.Errorf("%s (%d bits): verify failed: %v", c.alg, c.bits, err)
		}
		// Tampered data must fail.
		bad := testRRset("www.example.com")
		bad[0].Data = dnswire.A{Addr: netip.MustParseAddr("203.0.113.99")}
		if err := VerifyRRSIG(sig, bad, key.DNSKEY()); err == nil {
			t.Errorf("%s: verify accepted tampered RRset", c.alg)
		}
	}
}

func TestSignVerifyStandinAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{AlgRSAMD5, AlgDSA, AlgDSANSEC3SHA1, AlgECCGOST, AlgED448, AlgUnassigned, AlgReserved} {
		key := mustKey(t, alg, 257, 0)
		rrs := testRRset("sub.example.org")
		sigRR := signSet(t, rrs, key, "sub.example.org")
		sig := sigRR.Data.(dnswire.RRSIG)
		if err := VerifyRRSIG(sig, rrs, key.DNSKEY()); err != nil {
			t.Errorf("%s: stand-in verify failed: %v", alg, err)
		}
		sig.Signature[0] ^= 0xFF
		if err := VerifyRRSIG(sig, rrs, key.DNSKEY()); err == nil {
			t.Errorf("%s: stand-in verify accepted corrupted signature", alg)
		}
	}
}

func TestStandinSignatureLengths(t *testing.T) {
	if got := standinSigLen(AlgED448); got != 114 {
		t.Errorf("Ed448 stand-in signature length = %d, want 114", got)
	}
	if got := standinSeedLen(AlgED448); got != 57 {
		t.Errorf("Ed448 stand-in public key length = %d, want 57", got)
	}
	if got := standinSigLen(AlgDSA); got != 41 {
		t.Errorf("DSA stand-in signature length = %d, want 41", got)
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	k1 := mustKey(t, AlgECDSAP256SHA256, 256, 0)
	k2 := mustKey(t, AlgECDSAP256SHA256, 256, 0)
	rrs := testRRset("a.example")
	sig := signSet(t, rrs, k1, "example").Data.(dnswire.RRSIG)
	if err := VerifyRRSIG(sig, rrs, k2.DNSKEY()); err == nil {
		t.Error("verify accepted signature from a different key")
	}
}

func TestDSRoundTrip(t *testing.T) {
	for _, dt := range []DigestType{DigestSHA1, DigestSHA256, DigestSHA384, DigestGOST} {
		key := mustKey(t, AlgECDSAP256SHA256, 257, 0)
		owner := dnswire.MustName("secure.example")
		ds, err := CreateDS(owner, key.DNSKEY(), dt)
		if err != nil {
			t.Fatalf("CreateDS(%s): %v", dt, err)
		}
		if !MatchesDS(owner, key.DNSKEY(), ds) {
			t.Errorf("%s: MatchesDS = false for genuine DS", dt)
		}
		// Different owner must not match (owner is part of the digest).
		if MatchesDS(dnswire.MustName("other.example"), key.DNSKEY(), ds) {
			t.Errorf("%s: MatchesDS matched wrong owner", dt)
		}
		// Corrupted digest must not match.
		bad := ds
		bad.Digest = append([]byte(nil), ds.Digest...)
		bad.Digest[0] ^= 1
		if MatchesDS(owner, key.DNSKEY(), bad) {
			t.Errorf("%s: MatchesDS matched corrupted digest", dt)
		}
	}
}

func TestDSDigestLengths(t *testing.T) {
	want := map[DigestType]int{DigestSHA1: 20, DigestSHA256: 32, DigestGOST: 32, DigestSHA384: 48}
	key := mustKey(t, AlgED25519, 257, 0)
	for dt, n := range want {
		ds, err := CreateDS(dnswire.MustName("example."), key.DNSKEY(), dt)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds.Digest) != n {
			t.Errorf("%s digest length = %d, want %d", dt, len(ds.Digest), n)
		}
	}
}

func TestNSEC3HashRFC5155Vector(t *testing.T) {
	// RFC 5155 Appendix A: H(example) with salt aabbccdd, 12 iterations
	// is 0p9mhaveqvm6t7vbl5lop2u3t2rp3tom.
	salt := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	h := NSEC3Hash(dnswire.MustName("example."), 12, salt)
	if got := dnswire.Base32HexNoPad(h); got != "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom" {
		t.Errorf("NSEC3Hash(example.) = %s, want 0p9mhaveqvm6t7vbl5lop2u3t2rp3tom", got)
	}
	h = NSEC3Hash(dnswire.MustName("a.example."), 12, salt)
	if got := dnswire.Base32HexNoPad(h); got != "35mthgpgcu1qg68fab165klnsnk3dpvl" {
		t.Errorf("NSEC3Hash(a.example.) = %s, want 35mthgpgcu1qg68fab165klnsnk3dpvl", got)
	}
}

func TestNSEC3HashIterationsChangeResult(t *testing.T) {
	n := dnswire.MustName("www.example.com")
	h0 := NSEC3Hash(n, 0, nil)
	h1 := NSEC3Hash(n, 1, nil)
	h200 := NSEC3Hash(n, 200, nil)
	if bytes.Equal(h0, h1) || bytes.Equal(h1, h200) {
		t.Error("iteration count did not change NSEC3 hash")
	}
	if len(h0) != 20 {
		t.Errorf("SHA-1 NSEC3 hash length = %d, want 20", len(h0))
	}
}

func TestCoversHash(t *testing.T) {
	a, b, c := []byte{0x10}, []byte{0x50}, []byte{0x90}
	if !CoversHash(a, c, b) {
		t.Error("middle hash not covered")
	}
	if CoversHash(a, b, c) {
		t.Error("hash past next reported covered")
	}
	// Wrap-around at end of chain.
	if !CoversHash(c, a, []byte{0xF0}) {
		t.Error("wrap-around after last owner not covered")
	}
	if !CoversHash(c, a, []byte{0x05}) {
		t.Error("wrap-around before first owner not covered")
	}
	if CoversHash(c, a, []byte{0x50}) {
		t.Error("interior hash wrongly covered by wrap record")
	}
	// Owner itself is never covered.
	if CoversHash(a, c, a) {
		t.Error("owner hash reported covered")
	}
}

func TestTimeStatus(t *testing.T) {
	base := dnswire.RRSIG{Inception: testInception, Expiration: testExpiration}
	if got := TimeStatus(base, testNow); got != SigOK {
		t.Errorf("valid window: %v", got)
	}
	if got := TimeStatus(base, testExpiration+1); got != SigExpired {
		t.Errorf("after expiration: %v", got)
	}
	if got := TimeStatus(base, testInception-1); got != SigNotYetValid {
		t.Errorf("before inception: %v", got)
	}
	swapped := dnswire.RRSIG{Inception: testExpiration, Expiration: testInception}
	if got := TimeStatus(swapped, testNow); got != SigExpiredBeforeValid {
		t.Errorf("expired-before-valid: %v", got)
	}
}

func TestSerialArithmeticWraps(t *testing.T) {
	// Times that straddle the 2038/2106 wrap still compare correctly.
	if !serialLT(0xFFFFFF00, 0x00000100) {
		t.Error("serialLT failed across wrap")
	}
	if serialLT(0x00000100, 0xFFFFFF00) {
		t.Error("serialLT inverted across wrap")
	}
}

func TestCheckRRsetOutcomes(t *testing.T) {
	zsk := mustKey(t, AlgECDSAP256SHA256, 256, 0)
	rrs := testRRset("w.example.net")
	sigRR := signSet(t, rrs, zsk, "example.net")
	keys := []dnswire.DNSKEY{zsk.DNSKEY()}
	sup := StandardSupport()

	t.Run("ok", func(t *testing.T) {
		c := CheckRRset(rrs, []dnswire.RR{sigRR}, keys, testNow, sup)
		if c.Status != SigOK {
			t.Fatalf("Status = %v", c.Status)
		}
		if c.VerifiedBy != zsk.KeyTag() {
			t.Errorf("VerifiedBy = %d, want %d", c.VerifiedBy, zsk.KeyTag())
		}
	})
	t.Run("missing", func(t *testing.T) {
		if c := CheckRRset(rrs, nil, keys, testNow, sup); c.Status != SigMissing {
			t.Errorf("Status = %v", c.Status)
		}
	})
	t.Run("no matching key", func(t *testing.T) {
		other := mustKey(t, AlgECDSAP256SHA256, 256, 0)
		if c := CheckRRset(rrs, []dnswire.RR{sigRR}, []dnswire.DNSKEY{other.DNSKEY()}, testNow, sup); c.Status != SigNoMatchingKey {
			t.Errorf("Status = %v", c.Status)
		}
	})
	t.Run("zone bit cleared key is ignored", func(t *testing.T) {
		k := zsk.DNSKEY()
		k.Flags &^= dnswire.DNSKEYFlagZone
		if c := CheckRRset(rrs, []dnswire.RR{sigRR}, []dnswire.DNSKEY{k}, testNow, sup); c.Status != SigNoMatchingKey {
			t.Errorf("Status = %v", c.Status)
		}
	})
	t.Run("expired", func(t *testing.T) {
		if c := CheckRRset(rrs, []dnswire.RR{sigRR}, keys, testExpiration+100, sup); c.Status != SigExpired {
			t.Errorf("Status = %v", c.Status)
		}
	})
	t.Run("not yet valid", func(t *testing.T) {
		if c := CheckRRset(rrs, []dnswire.RR{sigRR}, keys, testInception-100, sup); c.Status != SigNotYetValid {
			t.Errorf("Status = %v", c.Status)
		}
	})
	t.Run("crypto failure", func(t *testing.T) {
		bad := sigRR
		s := bad.Data.(dnswire.RRSIG)
		s.Signature = append([]byte(nil), s.Signature...)
		s.Signature[10] ^= 0x55
		bad.Data = s
		if c := CheckRRset(rrs, []dnswire.RR{bad}, keys, testNow, sup); c.Status != SigCryptoFailed {
			t.Errorf("Status = %v", c.Status)
		}
	})
	t.Run("unsupported algorithm", func(t *testing.T) {
		ed448 := mustKey(t, AlgED448, 256, 0)
		sig := signSet(t, rrs, ed448, "example.net")
		noEd448 := CloudflareSupport()
		c := CheckRRset(rrs, []dnswire.RR{sig}, []dnswire.DNSKEY{ed448.DNSKEY()}, testNow, noEd448)
		if c.Status != SigUnsupportedAlg {
			t.Errorf("Status = %v", c.Status)
		}
		if len(c.UnsupportedAlgs) != 1 || c.UnsupportedAlgs[0] != AlgED448 {
			t.Errorf("UnsupportedAlgs = %v", c.UnsupportedAlgs)
		}
		// The same zone validates under a support set that has Ed448.
		if c := CheckRRset(rrs, []dnswire.RR{sig}, []dnswire.DNSKEY{ed448.DNSKEY()}, testNow, StandardSupport()); c.Status != SigOK {
			t.Errorf("Ed448-supporting validator: Status = %v", c.Status)
		}
	})
	t.Run("weak RSA key size policy", func(t *testing.T) {
		weak := mustKey(t, AlgRSASHA256, 256, 512)
		sig := signSet(t, rrs, weak, "example.net")
		cf := CloudflareSupport()
		c := CheckRRset(rrs, []dnswire.RR{sig}, []dnswire.DNSKEY{weak.DNSKEY()}, testNow, cf)
		if c.Status != SigUnsupportedAlg {
			t.Errorf("512-bit key under Cloudflare policy: Status = %v", c.Status)
		}
		if c := CheckRRset(rrs, []dnswire.RR{sig}, []dnswire.DNSKEY{weak.DNSKEY()}, testNow, StandardSupport()); c.Status != SigOK {
			t.Errorf("512-bit key under standard policy: Status = %v", c.Status)
		}
	})
	t.Run("one good signature wins over failing ones", func(t *testing.T) {
		expired := dnswire.RRSIG{TypeCovered: dnswire.TypeA, Algorithm: uint8(AlgECDSAP256SHA256),
			Labels: 3, OriginalTTL: 300, Expiration: testInception - 1, Inception: testInception - 100,
			KeyTag: zsk.KeyTag(), SignerName: dnswire.MustName("example.net"), Signature: []byte{1, 2, 3}}
		expRR := dnswire.RR{Name: rrs[0].Name, Class: dnswire.ClassIN, TTL: 300, Data: expired}
		c := CheckRRset(rrs, []dnswire.RR{expRR, sigRR}, keys, testNow, sup)
		if c.Status != SigOK {
			t.Errorf("Status = %v, want SigOK", c.Status)
		}
	})
}

// TestCheckRRsetKeyTagCollision: key tags are a 16-bit checksum, so two
// keys of one zone can share one. The RRset must validate whichever of the
// colliding DNSKEYs the validator meets first (RFC 4035 §5.3.1), and a
// signature neither of them made must still fail as a crypto failure.
func TestCheckRRsetKeyTagCollision(t *testing.T) {
	byTag := map[uint16]*KeyPair{}
	var signer, bystander *KeyPair
	for i := 0; signer == nil; i++ {
		if i == 20000 {
			t.Fatal("no key-tag collision in 20,000 Ed25519 keys")
		}
		flags := uint16(dnswire.DNSKEYFlagZone)
		if i%2 == 1 {
			flags |= dnswire.DNSKEYFlagSEP // KSK against ZSK collisions count too
		}
		k := mustKey(t, AlgED25519, flags, 0)
		if prev, ok := byTag[k.KeyTag()]; ok {
			signer, bystander = k, prev
		}
		byTag[k.KeyTag()] = k
	}

	rrs := testRRset("w.example.net")
	sig := []dnswire.RR{signSet(t, rrs, signer, "example.net")}
	sup := StandardSupport()
	for name, keys := range map[string][]dnswire.DNSKEY{
		"signer first":    {signer.DNSKEY(), bystander.DNSKEY()},
		"bystander first": {bystander.DNSKEY(), signer.DNSKEY()},
	} {
		c := CheckRRset(rrs, sig, keys, testNow, sup)
		if c.Status != SigOK || c.VerifiedBy != signer.KeyTag() || c.VerifiedSEP != signer.DNSKEY().IsSEP() {
			t.Errorf("%s: %+v, want SigOK by tag %d (SEP %t)", name, c, signer.KeyTag(), signer.DNSKEY().IsSEP())
		}
	}
	if c := CheckRRset(rrs, sig, []dnswire.DNSKEY{bystander.DNSKEY()}, testNow, sup); c.Status != SigCryptoFailed {
		t.Errorf("bystander alone: Status = %v, want SigCryptoFailed", c.Status)
	}
}

func TestMatchDS(t *testing.T) {
	ksk := mustKey(t, AlgECDSAP256SHA256, 257, 0)
	owner := dnswire.MustName("child.example")
	ds, err := CreateDS(owner, ksk.DNSKEY(), DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	keys := []dnswire.DNSKEY{ksk.DNSKEY()}
	sup := StandardSupport()

	m := MatchDS(owner, []dnswire.DS{ds}, keys, sup)
	if !m.TagMatch || !m.DigestMatch {
		t.Errorf("genuine DS: %+v", m)
	}

	badTag := ds
	badTag.KeyTag++
	m = MatchDS(owner, []dnswire.DS{badTag}, keys, sup)
	if m.TagMatch || m.DigestMatch {
		t.Errorf("bad tag: %+v", m)
	}

	badDigest := ds
	badDigest.Digest = append([]byte(nil), ds.Digest...)
	badDigest.Digest[3] ^= 0xFF
	m = MatchDS(owner, []dnswire.DS{badDigest}, keys, sup)
	if !m.TagMatch || m.DigestMatch {
		t.Errorf("bad digest: %+v", m)
	}

	unknownAlg := ds
	unknownAlg.Algorithm = uint8(AlgUnassigned)
	m = MatchDS(owner, []dnswire.DS{unknownAlg}, keys, sup)
	if !m.AllUnknownAlg {
		t.Errorf("unassigned alg: %+v", m)
	}

	unsupDigest := ds
	unsupDigest.DigestType = uint8(DigestUnassigned)
	m = MatchDS(owner, []dnswire.DS{unsupDigest}, keys, sup)
	if !m.AllUnsupportedDigest {
		t.Errorf("unassigned digest: %+v", m)
	}
}

func TestInventory(t *testing.T) {
	ksk := mustKey(t, AlgECDSAP256SHA256, 257, 0)
	zsk := mustKey(t, AlgECDSAP256SHA256, 256, 0)
	nonZone := zsk.DNSKEY()
	nonZone.Flags &^= dnswire.DNSKEYFlagZone
	unassigned := zsk.DNSKEY()
	unassigned.Algorithm = uint8(AlgUnassigned)

	inv := Inventory([]dnswire.DNSKEY{ksk.DNSKEY(), zsk.DNSKEY(), nonZone, unassigned}, StandardSupport())
	if inv.Total != 4 || inv.ZoneKeys != 3 || inv.SEPKeys != 1 || inv.NonSEPKeys != 2 || inv.NonZoneKeys != 1 {
		t.Errorf("Inventory = %+v", inv)
	}
	if inv.UnassignedAlgKeys != 1 || inv.UnsupportedAlgKeys != 1 {
		t.Errorf("Inventory algs = %+v", inv)
	}
}

func TestSortRRsetCanonicalProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		rrs := make([]dnswire.RR, 0, len(vals))
		for _, v := range vals {
			addr := netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
			rrs = append(rrs, dnswire.RR{Name: dnswire.MustName("x.example"),
				Class: dnswire.ClassIN, TTL: 60, Data: dnswire.A{Addr: addr}})
		}
		sorted := SortRRsetCanonical(rrs)
		for i := 1; i < len(sorted); i++ {
			a := sorted[i-1].Data.(dnswire.A).Addr.As4()
			b := sorted[i].Data.(dnswire.A).Addr.As4()
			if bytes.Compare(a[:], b[:]) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSignRRsetRejectsMixedSets(t *testing.T) {
	key := mustKey(t, AlgED25519, 256, 0)
	mixed := []dnswire.RR{
		{Name: dnswire.MustName("a.example"), Class: dnswire.ClassIN, TTL: 1, Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}},
		{Name: dnswire.MustName("b.example"), Class: dnswire.ClassIN, TTL: 1, Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.2")}},
	}
	if _, err := SignRRset(mixed, key, dnswire.MustName("example"), 0, 1); err == nil {
		t.Error("SignRRset accepted a mixed RRset")
	}
	if _, err := SignRRset(nil, key, dnswire.MustName("example"), 0, 1); err != ErrEmptyRRset {
		t.Errorf("SignRRset(nil) err = %v", err)
	}
}

func TestSignatureCoversTTLNotWireTTL(t *testing.T) {
	// A validator must verify with the RRSIG original TTL even when the
	// cached TTL has counted down.
	key := mustKey(t, AlgED25519, 256, 0)
	rrs := testRRset("ttl.example")
	sigRR := signSet(t, rrs, key, "example")
	aged := make([]dnswire.RR, len(rrs))
	copy(aged, rrs)
	for i := range aged {
		aged[i].TTL = 17 // decayed in cache
	}
	sig := sigRR.Data.(dnswire.RRSIG)
	if err := VerifyRRSIG(sig, aged, key.DNSKEY()); err != nil {
		t.Errorf("verification failed for TTL-decayed RRset: %v", err)
	}
}

func TestRSAKeyBits(t *testing.T) {
	key := mustKey(t, AlgRSASHA256, 256, 512)
	if got := RSAKeyBits(key.DNSKEY().PublicKey); got != 512 {
		t.Errorf("RSAKeyBits = %d, want 512", got)
	}
	if got := RSAKeyBits([]byte{1}); got != 0 {
		t.Errorf("RSAKeyBits(short) = %d, want 0", got)
	}
}

func TestKeyTagDiffersAcrossKeys(t *testing.T) {
	a := mustKey(t, AlgECDSAP256SHA256, 256, 0)
	b := mustKey(t, AlgECDSAP256SHA256, 256, 0)
	if a.KeyTag() == b.KeyTag() {
		t.Skip("key tag collision (possible but ~1/65536); regenerate")
	}
}

func TestSupportSets(t *testing.T) {
	std := StandardSupport()
	if !std.Supports(AlgED448) || !std.Supports(AlgED25519) {
		t.Error("standard support missing Ed448/Ed25519")
	}
	if std.Supports(AlgRSAMD5) || std.Supports(AlgDSA) {
		t.Error("standard support validates RFC 8624-forbidden algorithms")
	}
	cf := CloudflareSupport()
	if cf.Supports(AlgED448) {
		t.Error("Cloudflare support should not validate Ed448 (paper §3.3)")
	}
	if cf.MinRSABits != 1024 {
		t.Errorf("Cloudflare MinRSABits = %d", cf.MinRSABits)
	}
}

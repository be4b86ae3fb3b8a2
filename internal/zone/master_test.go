package zone

import (
	"flag"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// fixedBytes is n bytes of a fixed pattern starting at from: key, digest,
// hash and signature material that is the same in every process.
func fixedBytes(n int, from byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = from + byte(i)*7
	}
	return b
}

// goldenZone builds a zone holding every record type Master renders from
// literal RDATA. Nothing is signed or hashed here, so the master file is the
// same bytes in every process (Sign draws fresh keys each run).
func goldenZone() *Zone {
	name := dnswire.MustName
	z := New(name("example.com"), 300)
	z.AddNS(name("ns1.example.com"), netip.MustParseAddr("198.18.0.1"))
	z.AddAddress(name("www.example.com"), netip.MustParseAddr("198.18.0.11"), netip.MustParseAddr("2001:db8::11"))
	z.AddDelegation(name("child.example.com"), map[dnswire.Name][]netip.Addr{
		name("ns1.child.example.com"): {netip.MustParseAddr("198.18.0.20")},
	})
	z.AddDS(name("child.example.com"), dnswire.DS{KeyTag: 4711, Algorithm: 13, DigestType: 2, Digest: fixedBytes(32, 1)})
	add := func(owner string, ttl uint32, data dnswire.RData) {
		z.Add(dnswire.RR{Name: name(owner), Class: dnswire.ClassIN, TTL: ttl, Data: data})
	}
	add("txt.example.com", 120, dnswire.TXT{Strings: []string{"hello world", `quote " inside`}})
	add("example.com", 300, dnswire.MX{Preference: 10, Host: name("mail.example.com")})
	add("alias.example.com", 300, dnswire.CNAME{Target: name("www.example.com")})
	add("example.com", 300, dnswire.DNSKEY{Flags: 257, Protocol: 3, Algorithm: 13, PublicKey: fixedBytes(64, 2)})
	add("example.com", 300, dnswire.DNSKEY{Flags: 256, Protocol: 3, Algorithm: 13, PublicKey: fixedBytes(64, 3)})
	add("example.com", 300, dnswire.NSEC3PARAM{HashAlg: 1, Iterations: 0, Salt: []byte{0xCA, 0xFE}})
	add("www.example.com", 300, dnswire.NSEC{NextName: name("example.com"),
		Types: []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeRRSIG, dnswire.TypeNSEC}})
	add("0p9mhaveqvm6t7vbl5lop2u3t2rp3tom.example.com", 300, dnswire.NSEC3{HashAlg: 1, Flags: 1, Salt: []byte{0xCA, 0xFE},
		NextHashed: fixedBytes(20, 4), Types: []dnswire.Type{dnswire.TypeNS, dnswire.TypeSOA, dnswire.TypeMX,
			dnswire.TypeRRSIG, dnswire.TypeDNSKEY, dnswire.TypeNSEC3PARAM}})
	for i, covered := range []struct {
		owner string
		typ   dnswire.Type
		tag   uint16
	}{
		{"example.com", dnswire.TypeSOA, 23572},
		{"example.com", dnswire.TypeDNSKEY, 58622},
		{"example.com", dnswire.TypeDNSKEY, 23572},
		{"www.example.com", dnswire.TypeA, 23572},
		{"www.example.com", dnswire.TypeNSEC, 23572},
		{"0p9mhaveqvm6t7vbl5lop2u3t2rp3tom.example.com", dnswire.TypeNSEC3, 23572},
	} {
		add(covered.owner, 300, dnswire.RRSIG{
			TypeCovered: covered.typ, Algorithm: 13, Labels: uint8(name(covered.owner).LabelCount()),
			OriginalTTL: 300, Expiration: expiration, Inception: inception, KeyTag: covered.tag,
			SignerName: name("example.com"), Signature: fixedBytes(64, byte(16*i)),
		})
	}
	return z
}

// TestMasterGolden pins Master's presentation of every record type —
// directives, SOA first, canonical name order, each RRset followed by its
// RRSIGs, TXT quoting, base64 keys and signatures, base32hex NSEC3 hashes and
// type bitmaps — to testdata/master.golden. The testbed checks that the
// golden covers every type its 45 zone artifacts emit.
func TestMasterGolden(t *testing.T) {
	got := goldenZone().Master()
	golden := filepath.Join("testdata", "master.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("Master differs from testdata/master.golden (run with -update after intentional changes):\n%s", got)
	}
}

func TestMasterFileFormat(t *testing.T) {
	z := signedZone(t)
	out := z.Master()

	if !strings.HasPrefix(out, "$ORIGIN example.com.\n$TTL 300\n") {
		t.Errorf("missing directives:\n%s", out[:80])
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// SOA must be the first record line (after the two directives).
	if !strings.Contains(lines[2], "SOA") {
		t.Errorf("first record is not SOA: %q", lines[2])
	}
	for _, want := range []string{"DNSKEY", "RRSIG", "NSEC3PARAM", "NSEC3", "NS", "A"} {
		if !strings.Contains(out, want) {
			t.Errorf("master file missing %s records", want)
		}
	}
	// Every record line must carry the IN class.
	for _, l := range lines[2:] {
		if !strings.Contains(l, " IN ") {
			t.Errorf("line without class: %q", l)
		}
	}
}

func TestMasterReflectsMutations(t *testing.T) {
	// Count actual RRSIG record lines (the NSEC3 type bitmaps also contain
	// the literal "RRSIG", so match the type column).
	countSigLines := func(out string) int {
		n := 0
		for _, l := range strings.Split(out, "\n") {
			fields := strings.Fields(l)
			if len(fields) > 3 && fields[3] == "RRSIG" {
				n++
			}
		}
		return n
	}
	z := signedZone(t)
	before := countSigLines(z.Master())
	z.RemoveAllSigs()
	after := countSigLines(z.Master())
	if after != 0 || before == 0 {
		t.Errorf("RRSIG lines before=%d after=%d", before, after)
	}
}

func TestZoneStats(t *testing.T) {
	z := signedZone(t)
	stats := z.Stats()
	if stats[dnswire.TypeSOA] != 1 {
		t.Errorf("SOA count = %d", stats[dnswire.TypeSOA])
	}
	if stats[dnswire.TypeDNSKEY] != 2 {
		t.Errorf("DNSKEY count = %d", stats[dnswire.TypeDNSKEY])
	}
	if stats[dnswire.TypeRRSIG] == 0 {
		t.Error("no RRSIGs counted")
	}
	if stats[dnswire.TypeNSEC3] == 0 {
		t.Error("no NSEC3 chain counted")
	}
}

// Stats counts a zone's records by type.
func (z *Zone) Stats() map[dnswire.Type]int {
	out := make(map[dnswire.Type]int)
	for k, rrs := range z.rrsets {
		out[k.typ] += len(rrs)
	}
	for _, sigs := range z.sigs {
		out[dnswire.TypeRRSIG] += len(sigs)
	}
	return out
}

package dnswire

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

func sampleMessage() *Message {
	m := NewQuery(0x1234, MustName("valid.extended-dns-errors.com"), TypeA)
	m.Response = true
	m.Authoritative = true
	m.RCode = RCodeNoError
	m.Answer = []RR{
		{Name: MustName("valid.extended-dns-errors.com"), Class: ClassIN, TTL: 300,
			Data: A{Addr: mustAddr("192.0.2.1")}},
		{Name: MustName("valid.extended-dns-errors.com"), Class: ClassIN, TTL: 300,
			Data: RRSIG{TypeCovered: TypeA, Algorithm: 13, Labels: 3, OriginalTTL: 300,
				Expiration: 2000000000, Inception: 1900000000, KeyTag: 4711,
				SignerName: MustName("valid.extended-dns-errors.com"),
				Signature:  bytes.Repeat([]byte{0xAB}, 64)}},
	}
	m.Authority = []RR{
		{Name: MustName("valid.extended-dns-errors.com"), Class: ClassIN, TTL: 3600,
			Data: NS{Host: MustName("ns1.valid.extended-dns-errors.com")}},
	}
	m.Additional = []RR{
		{Name: MustName("ns1.valid.extended-dns-errors.com"), Class: ClassIN, TTL: 3600,
			Data: AAAA{Addr: mustAddr("2001:db8::53")}},
	}
	return m
}

func TestMessageRoundTrip(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\nsent %+v\n got %+v", m, got)
	}
}

func TestMessageRoundTripNoCompress(t *testing.T) {
	m := sampleMessage()
	wire, err := m.PackNoCompress()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip (no compression) mismatch")
	}
}

func TestCompressionShrinksMessages(t *testing.T) {
	m := sampleMessage()
	compressed, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := m.PackNoCompress()
	if err != nil {
		t.Fatal(err)
	}
	if len(compressed) >= len(plain) {
		t.Errorf("compressed %d >= uncompressed %d", len(compressed), len(plain))
	}
}

func TestEDERoundTrip(t *testing.T) {
	m := NewQuery(7, MustName("x.example"), TypeA)
	m.Response = true
	m.RCode = RCodeServFail
	m.AddEDE(9, "no SEP matching the DS found for x.example.")
	m.AddEDE(22, "")
	m.AddEDE(23, "192.0.2.53:53 rcode=REFUSED for x.example A")

	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	edes := got.EDEs()
	if len(edes) != 3 {
		t.Fatalf("got %d EDEs, want 3", len(edes))
	}
	if edes[0].InfoCode != 9 || edes[1].InfoCode != 22 || edes[2].InfoCode != 23 {
		t.Errorf("EDE codes = %v", got.EDECodes())
	}
	if edes[0].ExtraText != "no SEP matching the DS found for x.example." {
		t.Errorf("EXTRA-TEXT[0] = %q", edes[0].ExtraText)
	}
	if edes[1].ExtraText != "" {
		t.Errorf("EXTRA-TEXT[1] = %q", edes[1].ExtraText)
	}
}

func TestExtendedRCodeViaOPT(t *testing.T) {
	m := NewQuery(1, MustName("x.example"), TypeA)
	m.Response = true
	m.RCode = RCodeBadVers // 16: needs the OPT extension bits
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.RCode != RCodeBadVers {
		t.Errorf("RCode = %d, want 16", got.RCode)
	}
}

func TestExtendedRCodeWithoutOPTFails(t *testing.T) {
	m := &Message{ID: 1, Response: true, RCode: RCodeBadVers}
	if _, err := m.Pack(); err != ErrExtendedRCodeNoOPT {
		t.Errorf("err = %v, want ErrExtendedRCodeNoOPT", err)
	}
}

func TestDNSSECRecordsRoundTrip(t *testing.T) {
	owner := MustName("example.com")
	records := []RR{
		{Name: owner, Class: ClassIN, TTL: 3600, Data: DS{KeyTag: 12345, Algorithm: 13, DigestType: 2, Digest: bytes.Repeat([]byte{1}, 32)}},
		{Name: owner, Class: ClassIN, TTL: 3600, Data: DNSKEY{Flags: 257, Protocol: 3, Algorithm: 13, PublicKey: bytes.Repeat([]byte{2}, 64)}},
		{Name: owner, Class: ClassIN, TTL: 3600, Data: NSEC{NextName: MustName("a.example.com"), Types: []Type{TypeA, TypeRRSIG, TypeNSEC}}},
		{Name: owner, Class: ClassIN, TTL: 3600, Data: NSEC3{HashAlg: 1, Flags: 0, Iterations: 10, Salt: []byte{0xAA, 0xBB}, NextHashed: bytes.Repeat([]byte{3}, 20), Types: []Type{TypeA, TypeSOA, TypeDNSKEY}}},
		{Name: owner, Class: ClassIN, TTL: 3600, Data: NSEC3PARAM{HashAlg: 1, Flags: 0, Iterations: 10, Salt: []byte{0xAA, 0xBB}}},
		{Name: owner, Class: ClassIN, TTL: 3600, Data: SOA{MName: MustName("ns1.example.com"), RName: MustName("hostmaster.example.com"), Serial: 1, Refresh: 2, Retry: 3, Expire: 4, Minimum: 5}},
		{Name: owner, Class: ClassIN, TTL: 3600, Data: MX{Preference: 10, Host: MustName("mail.example.com")}},
		{Name: owner, Class: ClassIN, TTL: 3600, Data: TXT{Strings: []string{"hello", "world"}}},
		{Name: owner, Class: ClassIN, TTL: 3600, Data: CNAME{Target: MustName("other.example.com")}},
		{Name: owner, Class: ClassIN, TTL: 3600, Data: PTR{Target: MustName("host.example.com")}},
		{Name: owner, Class: ClassIN, TTL: 3600, Data: Unknown{RRType: Type(999), Raw: []byte{9, 9, 9}}},
	}
	m := &Message{ID: 2, Response: true, Answer: records}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answer) != len(records) {
		t.Fatalf("got %d answers, want %d", len(got.Answer), len(records))
	}
	for i := range records {
		if !reflect.DeepEqual(records[i], got.Answer[i]) {
			t.Errorf("record %d (%s) mismatch:\nsent %v\n got %v", i, records[i].Type(), records[i], got.Answer[i])
		}
	}
}

func TestTypeBitmapRoundTripProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		seen := map[Type]bool{}
		var types []Type
		for _, v := range raw {
			tt := Type(v % 1024) // keep within a few windows
			if tt == 0 || seen[tt] {
				continue
			}
			seen[tt] = true
			types = append(types, tt)
		}
		if len(types) == 0 {
			return true
		}
		b := newBuilder(false, nil)
		encodeTypeBitmap(b, types)
		p := &parser{msg: b.buf}
		got, err := decodeTypeBitmap(p, len(b.buf))
		if err != nil {
			return false
		}
		if len(got) != len(types) {
			return false
		}
		want := map[Type]bool{}
		for _, tt := range types {
			want[tt] = true
		}
		for _, tt := range got {
			if !want[tt] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnpackRejectsPointerLoops(t *testing.T) {
	// Header + a question whose name is a self-pointer.
	msg := make([]byte, 12)
	msg[4], msg[5] = 0, 1 // QDCOUNT=1
	msg = append(msg, 0xC0, 12)
	msg = append(msg, 0, 1, 0, 1)
	if _, err := Unpack(msg); err == nil {
		t.Error("Unpack accepted a self-referencing compression pointer")
	}
}

func TestUnpackRejectsForwardPointer(t *testing.T) {
	msg := make([]byte, 12)
	msg[4], msg[5] = 0, 1
	msg = append(msg, 0xC0, 40) // points past itself
	msg = append(msg, 0, 1, 0, 1)
	if _, err := Unpack(msg); err == nil {
		t.Error("Unpack accepted a forward compression pointer")
	}
}

func TestUnpackTruncated(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 5, 11, 13, len(wire) / 2, len(wire) - 1} {
		if _, err := Unpack(wire[:cut]); err == nil {
			t.Errorf("Unpack accepted message truncated to %d bytes", cut)
		}
	}
}

func TestUnpackFuzzResilience(t *testing.T) {
	// Unpack must never panic on arbitrary input.
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Unpack panicked on %x: %v", data, r)
			}
		}()
		_, _ = Unpack(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReplyMirrorsEDNS(t *testing.T) {
	q := NewQuery(5, MustName("a.example"), TypeA)
	r := q.Reply()
	if r.OPT == nil || !r.OPT.DO {
		t.Error("Reply did not mirror EDNS DO bit")
	}
	q.OPT = nil
	r = q.Reply()
	if r.OPT != nil {
		t.Error("Reply added OPT to a non-EDNS query")
	}
	if !r.Response || r.ID != 5 {
		t.Error("Reply header wrong")
	}
}

func TestKeyTagRFC4034Vector(t *testing.T) {
	// KeyTag sums the fields directly; check it against RFC 4034 appendix
	// B's accumulate-and-fold run over the encoded RDATA, for keys of even
	// and odd length and one big enough to carry out of 16 bits.
	for _, pub := range [][]byte{nil, {9}, {1, 2, 3, 4}, {1, 2, 3, 4, 5}, bytes.Repeat([]byte{0xFF}, 259)} {
		k := DNSKEY{Flags: 257, Protocol: 3, Algorithm: 5, PublicKey: pub}
		b := newBuilder(false, nil)
		k.encode(b)
		var ac uint32
		for i, c := range b.buf {
			if i&1 == 1 {
				ac += uint32(c)
			} else {
				ac += uint32(c) << 8
			}
		}
		ac += ac >> 16 & 0xFFFF
		if got := k.KeyTag(); got != uint16(ac&0xFFFF) {
			t.Errorf("KeyTag of a %d-octet key = %d, want %d", len(pub), got, uint16(ac&0xFFFF))
		}
	}
}

func TestBase32HexNoPad(t *testing.T) {
	// RFC 4648 test vectors, base32hex, lower-cased, padding stripped.
	cases := []struct{ in, want string }{
		{"", ""},
		{"f", "co"},
		{"fo", "cpng"},
		{"foo", "cpnmu"},
		{"foob", "cpnmuog"},
		{"fooba", "cpnmuoj1"},
		{"foobar", "cpnmuoj1e8"},
	}
	for _, c := range cases {
		if got := Base32HexNoPad([]byte(c.in)); got != c.want {
			t.Errorf("Base32HexNoPad(%q) = %q, want %q", c.in, got, c.want)
		}
		// The decoder inverts it in either case.
		for _, enc := range []string{c.want, strings.ToUpper(c.want)} {
			if got, err := DecodeBase32Hex(enc); err != nil || string(got) != c.in {
				t.Errorf("DecodeBase32Hex(%q) = %q, %v; want %q", enc, got, err, c.in)
			}
		}
	}
	if _, err := DecodeBase32Hex("cpn.w"); err == nil {
		t.Error("DecodeBase32Hex accepted characters outside the alphabet")
	}
}

func TestRRSIGSignedDataExcludesSignature(t *testing.T) {
	s := RRSIG{TypeCovered: TypeA, Algorithm: 13, Labels: 2, OriginalTTL: 300,
		Expiration: 100, Inception: 50, KeyTag: 1,
		SignerName: MustName("example.com"), Signature: []byte{1, 2, 3}}
	data := s.SignedData()
	full := newBuilder(false, nil)
	s.encode(full)
	if len(data) != len(full.buf)-3 {
		t.Errorf("SignedData length %d, want %d", len(data), len(full.buf)-3)
	}
	if !bytes.Equal(data, full.buf[:len(data)]) {
		t.Error("SignedData is not a prefix of the full RDATA")
	}
}

func TestMessageStringSmoke(t *testing.T) {
	s := sampleMessage().String()
	for _, want := range []string{"NOERROR", "ANSWER SECTION", "valid.extended-dns-errors.com."} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

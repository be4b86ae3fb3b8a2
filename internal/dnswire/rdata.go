package dnswire

import (
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"net/netip"
	"slices"
	"strings"
)

// RData is the type-specific payload of a resource record.
type RData interface {
	// Type returns the RR type this payload belongs to.
	Type() Type
	// encode appends the wire-format RDATA (without the RDLENGTH prefix).
	encode(b *builder)
	// String returns the presentation form of the RDATA.
	String() string
}

// RR is a resource record: an owner name, metadata, and typed RDATA.
type RR struct {
	Name  Name
	Class Class
	TTL   uint32
	Data  RData
}

// Type returns the record type, taken from the RDATA.
func (r RR) Type() Type { return r.Data.Type() }

func (r RR) String() string {
	return fmt.Sprintf("%s\t%d\t%s\t%s\t%s", r.Name, r.TTL, r.Class, r.Type(), r.Data)
}

// encode appends the full RR including owner name and RDLENGTH.
func (r RR) encode(b *builder) {
	b.name(r.Name, true)
	b.uint16(uint16(r.Type()))
	b.uint16(uint16(r.Class))
	b.rrTTL(r.TTL)
	at := b.beginLength16()
	r.Data.encode(b)
	b.endLength16(at)
}

// CanonicalWire returns the canonical (RFC 4034 §6.2) uncompressed wire form
// of the record, used for DNSSEC signing and verification. ttl overrides the
// record TTL (signers use the RRSIG original TTL).
func (r RR) CanonicalWire(ttl uint32) []byte {
	b := newBuilder(false, nil)
	r.TTL = ttl
	r.encode(b)
	return b.release()
}

// --- Address records ---

// A is an IPv4 address record.
type A struct{ Addr netip.Addr }

// Type implements RData.
func (A) Type() Type { return TypeA }

func (a A) encode(b *builder) {
	v4 := a.Addr.As4()
	b.bytes(v4[:])
}

func (a A) String() string { return a.Addr.String() }

// AAAA is an IPv6 address record.
type AAAA struct{ Addr netip.Addr }

// Type implements RData.
func (AAAA) Type() Type { return TypeAAAA }

func (a AAAA) encode(b *builder) {
	v6 := a.Addr.As16()
	b.bytes(v6[:])
}

func (a AAAA) String() string { return a.Addr.String() }

// --- Name-valued records ---

// NS names an authoritative nameserver for the owner zone.
type NS struct{ Host Name }

// Type implements RData.
func (NS) Type() Type { return TypeNS }

func (n NS) encode(b *builder) { b.name(n.Host, true) }
func (n NS) String() string    { return string(n.Host) }

// CNAME aliases the owner name to Target.
type CNAME struct{ Target Name }

// Type implements RData.
func (CNAME) Type() Type { return TypeCNAME }

func (c CNAME) encode(b *builder) { b.name(c.Target, true) }
func (c CNAME) String() string    { return string(c.Target) }

// PTR maps an address back to a name.
type PTR struct{ Target Name }

// Type implements RData.
func (PTR) Type() Type { return TypePTR }

func (p PTR) encode(b *builder) { b.name(p.Target, true) }
func (p PTR) String() string    { return string(p.Target) }

// --- SOA ---

// SOA is the start-of-authority record.
type SOA struct {
	MName   Name
	RName   Name
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// Type implements RData.
func (SOA) Type() Type { return TypeSOA }

func (s SOA) encode(b *builder) {
	b.name(s.MName, true)
	b.name(s.RName, true)
	b.uint32(s.Serial)
	b.uint32(s.Refresh)
	b.uint32(s.Retry)
	b.uint32(s.Expire)
	b.uint32(s.Minimum)
}

func (s SOA) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d", s.MName, s.RName, s.Serial, s.Refresh, s.Retry, s.Expire, s.Minimum)
}

// --- MX / TXT ---

// MX is a mail exchanger record.
type MX struct {
	Preference uint16
	Host       Name
}

// Type implements RData.
func (MX) Type() Type { return TypeMX }

func (m MX) encode(b *builder) {
	b.uint16(m.Preference)
	b.name(m.Host, true)
}

func (m MX) String() string { return fmt.Sprintf("%d %s", m.Preference, m.Host) }

// TXT carries free-form character strings.
type TXT struct{ Strings []string }

// Type implements RData.
func (TXT) Type() Type { return TypeTXT }

func (t TXT) encode(b *builder) {
	for _, s := range t.Strings {
		for len(s) > 255 {
			b.uint8(255)
			b.str(s[:255])
			s = s[255:]
		}
		b.uint8(uint8(len(s)))
		b.str(s)
	}
}

func (t TXT) String() string {
	parts := make([]string, len(t.Strings))
	for i, s := range t.Strings {
		parts[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(parts, " ")
}

// --- DNSSEC records ---

// DS is a delegation signer record (RFC 4034 §5), published at the parent.
type DS struct {
	KeyTag     uint16
	Algorithm  uint8
	DigestType uint8
	Digest     []byte
}

// Type implements RData.
func (DS) Type() Type { return TypeDS }

func (d DS) encode(b *builder) {
	b.uint16(d.KeyTag)
	b.uint8(d.Algorithm)
	b.uint8(d.DigestType)
	b.bytes(d.Digest)
}

func (d DS) String() string {
	return fmt.Sprintf("%d %d %d %s", d.KeyTag, d.Algorithm, d.DigestType, strings.ToUpper(hex.EncodeToString(d.Digest)))
}

// DNSKEY flag bits (RFC 4034 §2.1.1).
const (
	DNSKEYFlagZone = 0x0100 // Zone Key bit
	DNSKEYFlagSEP  = 0x0001 // Secure Entry Point (KSK convention)
)

// DNSKEY is a zone public key (RFC 4034 §2).
type DNSKEY struct {
	Flags     uint16
	Protocol  uint8
	Algorithm uint8
	PublicKey []byte
}

// Type implements RData.
func (DNSKEY) Type() Type { return TypeDNSKEY }

func (k DNSKEY) encode(b *builder) {
	b.uint16(k.Flags)
	b.uint8(k.Protocol)
	b.uint8(k.Algorithm)
	b.bytes(k.PublicKey)
}

func (k DNSKEY) String() string {
	return fmt.Sprintf("%d %d %d %s", k.Flags, k.Protocol, k.Algorithm, base64.StdEncoding.EncodeToString(k.PublicKey))
}

// IsZoneKey reports whether the Zone Key flag bit is set; validators must
// ignore DNSKEYs without it (RFC 4034 §2.1.1).
func (k DNSKEY) IsZoneKey() bool { return k.Flags&DNSKEYFlagZone != 0 }

// IsSEP reports whether the key is flagged as a secure entry point (KSK).
func (k DNSKEY) IsSEP() bool { return k.Flags&DNSKEYFlagSEP != 0 }

// KeyTag computes the RFC 4034 Appendix B key tag of the key: the RDATA summed
// as big-endian 16-bit words, the carry folded in once. The four fixed octets
// are two whole words, so the public key's octets keep their own parity.
func (k DNSKEY) KeyTag() uint16 {
	ac := uint32(k.Flags) + uint32(k.Protocol)<<8 + uint32(k.Algorithm)
	for i, c := range k.PublicKey {
		if i&1 == 1 {
			ac += uint32(c)
		} else {
			ac += uint32(c) << 8
		}
	}
	ac += ac >> 16 & 0xFFFF
	return uint16(ac & 0xFFFF)
}

// RRSIG is a resource record signature (RFC 4034 §3).
type RRSIG struct {
	TypeCovered Type
	Algorithm   uint8
	Labels      uint8
	OriginalTTL uint32
	Expiration  uint32 // seconds since epoch (serial arithmetic)
	Inception   uint32
	KeyTag      uint16
	SignerName  Name // never compressed
	Signature   []byte
}

// Type implements RData.
func (RRSIG) Type() Type { return TypeRRSIG }

func (s RRSIG) encode(b *builder) {
	b.uint16(uint16(s.TypeCovered))
	b.uint8(s.Algorithm)
	b.uint8(s.Labels)
	b.uint32(s.OriginalTTL)
	b.uint32(s.Expiration)
	b.uint32(s.Inception)
	b.uint16(s.KeyTag)
	b.name(s.SignerName, false)
	b.bytes(s.Signature)
}

func (s RRSIG) String() string {
	return fmt.Sprintf("%s %d %d %d %d %d %d %s %s",
		s.TypeCovered, s.Algorithm, s.Labels, s.OriginalTTL, s.Expiration,
		s.Inception, s.KeyTag, s.SignerName, base64.StdEncoding.EncodeToString(s.Signature))
}

// SignedData returns the RRSIG RDATA with the Signature field excluded,
// i.e. the prefix of the data over which the signature is computed
// (RFC 4034 §3.1.8.1).
func (s RRSIG) SignedData() []byte {
	b := newBuilder(false, nil)
	s.Signature = nil
	s.encode(b)
	return b.release()
}

// NSEC provides authenticated denial of existence (RFC 4034 §4).
type NSEC struct {
	NextName Name
	Types    []Type
}

// Type implements RData.
func (NSEC) Type() Type { return TypeNSEC }

func (n NSEC) encode(b *builder) {
	b.name(n.NextName, false)
	encodeTypeBitmap(b, n.Types)
}

func (n NSEC) String() string {
	return fmt.Sprintf("%s %s", n.NextName, typeListString(n.Types))
}

// NSEC3FlagOptOut is the Opt-Out flag (RFC 5155 §3.1.2.1): the record's span
// may contain unsigned delegations that have no NSEC3 of their own.
const NSEC3FlagOptOut uint8 = 0x01

// NSEC3 provides hashed authenticated denial of existence (RFC 5155).
type NSEC3 struct {
	HashAlg    uint8 // 1 = SHA-1
	Flags      uint8 // NSEC3FlagOptOut
	Iterations uint16
	Salt       []byte
	NextHashed []byte // raw hash of the next owner in hash order
	Types      []Type
}

// Type implements RData.
func (NSEC3) Type() Type { return TypeNSEC3 }

func (n NSEC3) encode(b *builder) {
	b.uint8(n.HashAlg)
	b.uint8(n.Flags)
	b.uint16(n.Iterations)
	b.uint8(uint8(len(n.Salt)))
	b.bytes(n.Salt)
	b.uint8(uint8(len(n.NextHashed)))
	b.bytes(n.NextHashed)
	encodeTypeBitmap(b, n.Types)
}

func (n NSEC3) String() string {
	salt := "-"
	if len(n.Salt) > 0 {
		salt = strings.ToUpper(hex.EncodeToString(n.Salt))
	}
	return fmt.Sprintf("%d %d %d %s %s %s", n.HashAlg, n.Flags, n.Iterations, salt,
		Base32HexNoPad(n.NextHashed), typeListString(n.Types))
}

// NSEC3PARAM advertises the zone's NSEC3 parameters at the apex (RFC 5155 §4).
type NSEC3PARAM struct {
	HashAlg    uint8
	Flags      uint8
	Iterations uint16
	Salt       []byte
}

// Type implements RData.
func (NSEC3PARAM) Type() Type { return TypeNSEC3PARAM }

func (n NSEC3PARAM) encode(b *builder) {
	b.uint8(n.HashAlg)
	b.uint8(n.Flags)
	b.uint16(n.Iterations)
	b.uint8(uint8(len(n.Salt)))
	b.bytes(n.Salt)
}

func (n NSEC3PARAM) String() string {
	salt := "-"
	if len(n.Salt) > 0 {
		salt = strings.ToUpper(hex.EncodeToString(n.Salt))
	}
	return fmt.Sprintf("%d %d %d %s", n.HashAlg, n.Flags, n.Iterations, salt)
}

// Unknown carries RDATA of a type this package does not model (RFC 3597).
type Unknown struct {
	RRType Type
	Raw    []byte
}

// Type implements RData.
func (u Unknown) Type() Type { return u.RRType }

func (u Unknown) encode(b *builder) { b.bytes(u.Raw) }

func (u Unknown) String() string {
	return fmt.Sprintf("\\# %d %s", len(u.Raw), hex.EncodeToString(u.Raw))
}

// --- type bitmap helpers (RFC 4034 §4.1.2) ---

func encodeTypeBitmap(b *builder, types []Type) {
	if len(types) == 0 {
		return
	}
	// Every bitmap this system builds lists its types in ascending order
	// already; only one that does not is copied and sorted.
	sorted := types
	if !slices.IsSorted(sorted) {
		sorted = slices.Clone(types)
		slices.Sort(sorted)
	}
	window := -1
	var bitmap [32]byte
	maxOctet := 0
	flush := func() {
		if window >= 0 {
			b.uint8(uint8(window))
			b.uint8(uint8(maxOctet + 1))
			b.bytes(bitmap[:maxOctet+1])
		}
		bitmap = [32]byte{}
		maxOctet = 0
	}
	for _, t := range sorted {
		w := int(t >> 8)
		if w != window {
			flush()
			window = w
		}
		lo := int(t & 0xFF)
		bitmap[lo/8] |= 0x80 >> (lo % 8)
		if lo/8 > maxOctet {
			maxOctet = lo / 8
		}
	}
	flush()
}

func decodeTypeBitmap(p *parser, end int) ([]Type, error) {
	var types []Type
	for p.off < end {
		window, err := p.uint8()
		if err != nil {
			return nil, err
		}
		length, err := p.uint8()
		if err != nil {
			return nil, err
		}
		if length == 0 || length > 32 {
			return nil, fmt.Errorf("dnswire: bad type bitmap window length %d", length)
		}
		octets, err := p.bytes(int(length))
		if err != nil {
			return nil, err
		}
		for i, oct := range octets {
			for bit := 0; bit < 8; bit++ {
				if oct&(0x80>>bit) != 0 {
					types = append(types, Type(int(window)<<8|i*8+bit))
				}
			}
		}
	}
	return types, nil
}

func typeListString(types []Type) string {
	parts := make([]string, len(types))
	for i, t := range types {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}

// Base32HexNoPad encodes b in base32hex without padding, the presentation
// encoding of NSEC3 owner hashes (RFC 5155 §1.3). Output is lower case, as
// owner names are canonicalized to lower case.
func Base32HexNoPad(b []byte) string {
	return string(AppendBase32Hex(make([]byte, 0, (len(b)*8+4)/5), b))
}

// AppendBase32Hex appends the Base32HexNoPad encoding of b to dst.
func AppendBase32Hex(dst, b []byte) []byte {
	const alphabet = "0123456789abcdefghijklmnopqrstuv"
	var acc uint
	var bits uint
	for _, c := range b {
		acc = acc<<8 | uint(c)
		bits += 8
		for bits >= 5 {
			bits -= 5
			dst = append(dst, alphabet[acc>>bits&0x1F])
		}
	}
	if bits > 0 {
		dst = append(dst, alphabet[acc<<(5-bits)&0x1F])
	}
	return dst
}

// DecodeBase32Hex is the inverse of Base32HexNoPad, accepting either case.
func DecodeBase32Hex(s string) ([]byte, error) {
	var out []byte
	if n := len(s) * 5 / 8; n > 0 {
		out = make([]byte, 0, n)
	}
	var acc, bits uint
	for i := 0; i < len(s); i++ {
		c := s[i]
		var v uint
		switch {
		case c >= '0' && c <= '9':
			v = uint(c - '0')
		case c >= 'a' && c <= 'v':
			v = uint(c-'a') + 10
		case c >= 'A' && c <= 'V':
			v = uint(c-'A') + 10
		default:
			return nil, fmt.Errorf("bad base32hex %q", s)
		}
		acc = acc<<5 | v
		bits += 5
		if bits >= 8 {
			bits -= 8
			out = append(out, byte(acc>>bits))
		}
	}
	return out, nil
}

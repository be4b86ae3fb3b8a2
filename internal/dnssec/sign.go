package dnssec

import (
	"crypto/sha1"
	"crypto/sha256"
	"crypto/sha512"
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// ErrEmptyRRset is returned when signing or verifying an empty record set.
var ErrEmptyRRset = errors.New("dnssec: empty RRset")

// SortRRsetCanonical sorts the records of a single RRset into canonical
// order (RFC 4034 §6.3): ascending by canonical RDATA wire form. The slice is
// sorted in place and returned.
func SortRRsetCanonical(rrs []dnswire.RR) []dnswire.RR {
	sort.SliceStable(rrs, func(i, j int) bool {
		a := rdataWire(rrs[i])
		b := rdataWire(rrs[j])
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return rrs
}

// rdataWire returns the canonical wire form of the RDATA alone.
func rdataWire(rr dnswire.RR) []byte {
	full := rr.CanonicalWire(rr.TTL)
	// owner + type(2) + class(2) + ttl(4) + rdlength(2)
	skip := rr.Name.WireLength() + 10
	return full[skip:]
}

// signedData builds the octet stream covered by an RRSIG: the RRSIG RDATA
// with the signature field removed, followed by each RR of the set in
// canonical form with the original TTL (RFC 4034 §3.1.8.1). When the RRSIG
// labels field is smaller than the owner's label count, the RRset was
// synthesized from a wildcard and the signed owner is the wildcard form
// "*.<rightmost labels>" (RFC 4035 §5.3.2).
func signedData(sig dnswire.RRSIG, rrs []dnswire.RR) []byte {
	data := sig.SignedData()
	// Most RRsets a validator meets hold one record (a DS, an NSEC3, an A):
	// nothing to order, nothing to copy.
	if len(rrs) > 1 {
		rrs = SortRRsetCanonical(append([]dnswire.RR(nil), rrs...))
	}
	for _, rr := range rrs {
		if int(sig.Labels) < rr.Name.LabelCount() {
			rr.Name = wildcardForm(rr.Name, int(sig.Labels))
		}
		data = append(data, rr.CanonicalWire(sig.OriginalTTL)...)
	}
	return data
}

// wildcardForm returns "*." prepended to the rightmost n labels of name.
func wildcardForm(name dnswire.Name, n int) dnswire.Name {
	count := name.LabelCount()
	if n >= count {
		return name
	}
	for ; count > n; count-- {
		name = name.Parent()
	}
	return name.Child("*")
}

// SignRRset signs an RRset with key, producing an RRSIG record owned by the
// set's owner name. All records must share owner, class, type, and TTL.
func SignRRset(rrs []dnswire.RR, key *KeyPair, signer dnswire.Name, inception, expiration uint32) (dnswire.RR, error) {
	if len(rrs) == 0 {
		return dnswire.RR{}, ErrEmptyRRset
	}
	owner := rrs[0].Name
	for _, rr := range rrs[1:] {
		if rr.Name != owner || rr.Type() != rrs[0].Type() {
			return dnswire.RR{}, fmt.Errorf("dnssec: mixed RRset (%s/%s vs %s/%s)", rr.Name, rr.Type(), owner, rrs[0].Type())
		}
	}
	// The labels field excludes a leading "*" so wildcard-synthesized
	// responses verify against the wildcard's signature (RFC 4034 §3.1.3).
	labelCount := owner.LabelCount()
	if strings.HasPrefix(string(owner), "*.") {
		labelCount--
	}
	sig := dnswire.RRSIG{
		TypeCovered: rrs[0].Type(),
		Algorithm:   uint8(key.Alg),
		Labels:      uint8(labelCount),
		OriginalTTL: rrs[0].TTL,
		Expiration:  expiration,
		Inception:   inception,
		KeyTag:      key.KeyTag(),
		SignerName:  signer,
	}
	raw, err := key.Sign(signedData(sig, rrs))
	if err != nil {
		return dnswire.RR{}, err
	}
	sig.Signature = raw
	return dnswire.RR{Name: owner, Class: rrs[0].Class, TTL: rrs[0].TTL, Data: sig}, nil
}

// VerifyRRSIG checks that sig is a valid signature over rrs with the given
// DNSKEY. It checks the cryptographic binding only; temporal validity and
// key eligibility are the validator's concern.
func VerifyRRSIG(sig dnswire.RRSIG, rrs []dnswire.RR, key dnswire.DNSKEY) error {
	return (*VerifyMemo)(nil).verifyRRSIG(sig, rrs, key)
}

// CreateDS derives a DS record for a DNSKEY at owner using digest type dt
// (RFC 4034 §5.1.4: digest over owner wire form plus DNSKEY RDATA).
func CreateDS(owner dnswire.Name, key dnswire.DNSKEY, dt DigestType) (dnswire.DS, error) {
	rr := dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: 0, Data: key}
	full := rr.CanonicalWire(0)
	// Strip type/class/ttl/rdlength to get owner || RDATA.
	ownerLen := owner.WireLength()
	data := append([]byte(nil), full[:ownerLen]...)
	data = append(data, full[ownerLen+10:]...)

	digest, err := dsDigest(dt, data)
	if err != nil {
		return dnswire.DS{}, err
	}
	return dnswire.DS{
		KeyTag:     key.KeyTag(),
		Algorithm:  key.Algorithm,
		DigestType: uint8(dt),
		Digest:     digest,
	}, nil
}

func dsDigest(dt DigestType, data []byte) ([]byte, error) {
	switch dt {
	case DigestSHA1:
		sum := sha1.Sum(data)
		return sum[:], nil
	case DigestSHA256:
		sum := sha256.Sum256(data)
		return sum[:], nil
	case DigestSHA384:
		sum := sha512.Sum384(data)
		return sum[:], nil
	case DigestGOST:
		// Stand-in for GOST R 34.11-94 (not in the Go stdlib): a
		// domain-separated SHA-256 with the real 32-byte output size.
		h := sha256.New()
		h.Write([]byte("standin:gost-r-34.11-94:"))
		h.Write(data)
		return h.Sum(nil), nil
	default:
		return nil, fmt.Errorf("dnssec: cannot compute digest type %d", dt)
	}
}

// MatchesDS reports whether the DNSKEY at owner corresponds to the DS record:
// same key tag and algorithm, and a matching digest (when computable).
func MatchesDS(owner dnswire.Name, key dnswire.DNSKEY, ds dnswire.DS) bool {
	if ds.KeyTag != key.KeyTag() || ds.Algorithm != key.Algorithm {
		return false
	}
	want, err := CreateDS(owner, key, DigestType(ds.DigestType))
	if err != nil {
		return false
	}
	if len(want.Digest) != len(ds.Digest) {
		return false
	}
	for i := range want.Digest {
		if want.Digest[i] != ds.Digest[i] {
			return false
		}
	}
	return true
}

package dnssec

import (
	"bytes"
	"crypto/sha1"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// NSEC3HashSHA1 is the only NSEC3 hash algorithm assigned (RFC 5155 §11).
const NSEC3HashSHA1 = 1

// MaxNSEC3Iterations is the iteration count above which RFC 9276 §3.2 says
// validators may treat the zone as insecure. The paper's nsec3-iter-200 test
// domain uses 200 iterations — above 0, the recommended value, but below the
// refusal thresholds the tested resolvers applied in practice (none of the
// seven returned an error for it, Table 4 row 25).
const MaxNSEC3Iterations = 500

// NSEC3Hash computes the iterated, salted SHA-1 owner-name hash of RFC 5155
// §5: IH(0) = H(owner_wire || salt); IH(k) = H(IH(k-1) || salt). The owner is
// hashed in uncompressed, lower-case wire form (Name is already lower case).
func NSEC3Hash(name dnswire.Name, iterations uint16, salt []byte) []byte {
	// Sized for the longest owner and the longest salt, so the only
	// allocation is the digest returned.
	var scratch [dnswire.MaxNameLength + 255]byte
	sum := sha1.Sum(append(name.AppendWire(scratch[:0]), salt...))
	for i := 0; i < int(iterations); i++ {
		sum = sha1.Sum(append(append(scratch[:0], sum[:]...), salt...))
	}
	return append([]byte(nil), sum[:]...)
}

// CoversHash reports whether an NSEC3 record with owner hash ownerHash and
// next hash nextHash covers (proves the non-existence of) target hash h.
// Hashes are compared as raw octet strings; the chain wraps around at the
// end of the zone.
func CoversHash(ownerHash, nextHash, h []byte) bool {
	cmp := bytes.Compare
	switch {
	case cmp(ownerHash, nextHash) < 0:
		return cmp(ownerHash, h) < 0 && cmp(h, nextHash) < 0
	case cmp(ownerHash, nextHash) > 0:
		// Last NSEC3 in the chain: covers everything after owner or
		// before next.
		return cmp(ownerHash, h) < 0 || cmp(h, nextHash) < 0
	default:
		// Single-record chain covers everything except itself.
		return cmp(ownerHash, h) != 0
	}
}
